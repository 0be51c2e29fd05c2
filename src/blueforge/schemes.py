"""Graded blueprints and Proj, chart-glued blue schemes, projective spaces,
closed subschemes from integral relations, and topological fibre products."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .core import (ONE, ZERO, Blueprint, BlueprintError, BlueprintMorphism,
                   MonomialBackend, TooLarge, _UnionFind, localize)
from .order import UpSetOrder, _bits
from .spectra import SpecSpace, _monomial_primes, residue_field, spec
from . import counting


class EmptyIrrelevantComplement(BlueprintError):
    pass


class GradedBlueprint:
    """A monomial blueprint with nonnegative generator degrees; coefficient
    elements sit in degree 0 and every relation must be homogeneous."""

    def __init__(self, blueprint, degrees):
        if blueprint.backend.kind != "monomial":
            raise BlueprintError("graded blueprints use the monomial backend")
        self.blueprint = blueprint
        self.degrees = dict(degrees)
        for name in blueprint.backend.gens:
            if self.degrees.get(name, -1) < 0:
                raise BlueprintError(f"missing or negative degree for {name}")
        for l, r in blueprint.relations:
            degs = {self.term_degree(t) for t in l + r}
            if len(degs) > 1:
                raise BlueprintError(
                    f"inhomogeneous relation {blueprint.render_sum(l)} = "
                    f"{blueprint.render_sum(r)}")

    def term_degree(self, term):
        _, exps = term
        return sum(e * self.degrees[n]
                   for n, e in zip(self.blueprint.backend.gens, exps))

    def positive_generators(self):
        return [n for n in self.blueprint.backend.gens if self.degrees[n] > 0]

    def fq_points(self, q):
        return counting.projective_fq_points(self.blueprint, q)

    def __repr__(self):
        return f"Graded({self.blueprint!r})"


class ProjSpace(SpecSpace):
    """Homogeneous primes not containing the whole irrelevant part, with the
    specialization order.

    Closures V(p) are counted on the ambient model with the point's variables
    forced to vanish; the quotient cone itself is never materialized (it may
    carry non-unit monomial identifications outside the backend's reach)."""

    projective = True

    def __init__(self, graded, points, varsets):
        super().__init__(graded.blueprint, points, varsets)
        self.graded = graded

    def ambient_blueprint(self):
        return self.graded.blueprint

    def closure_vanishing(self, i):
        backend = self.blueprint.backend
        names = set()
        for g in self.points[i].ideal.minimal:
            for name, e in zip(backend.gens, g[1]):
                if e:
                    names.add(name)
        return tuple(sorted(names))

    def closure_blueprint(self, i):
        raise BlueprintError("projective closures are counted on the ambient"
                             " model; no affine closure blueprint")

    def _closure_polynomial(self, i):
        """N(q) of the closure of point i on the ambient model, fit with one
        sample count held out (degree at most len(SAMPLE_Q) - 2), or None."""
        if len(self.blueprint.backend.gens) > 8:
            raise BlueprintError("ambient too large for counting")
        dead = self.closure_vanishing(i)
        return counting.fit_polynomial(
            [(q, counting.projective_fq_points(self.blueprint, q, dead))
             for q in counting.SAMPLE_Q], len(counting.SAMPLE_Q) - 2)

    def torus_certificate_at(self, i):
        """The projective closure is a point (rank-0 torus) iff one variable
        survives and every relation dies on the closure."""
        backend = self.blueprint.backend
        dead = set(self.closure_vanishing(i))
        live = [n for n in backend.gens if n not in dead]
        if len(live) != 1:
            return None

        def killed(term):
            return any(e and name in dead
                       for name, e in zip(backend.gens, term[1]))

        for l, r in self.blueprint.relations:
            nl = [t for t in l if not killed(t)]
            nr = [t for t in r if not killed(t)]
            if sorted(nl) != sorted(nr):
                return None
        syms = set(backend.coeff.backend.symbols)
        if syms == {ZERO, ONE} and not backend.coeff.relations:
            return (0, "F1")
        if syms == {ZERO, ONE, "-1"}:
            return (0, "F1^2")
        return None


def proj(graded, budget=None):
    """Homogeneous primes not containing all positive-degree generators.

    `graded` is a GradedBlueprint or a BlueScheme with a graded model. The
    primes are decided exactly by `_monomial_primes`, so `budget` is not
    read and the result is always complete."""
    if isinstance(graded, BlueScheme):
        graded = graded.graded_model
    if not isinstance(graded, GradedBlueprint):
        raise BlueprintError("proj expects a graded blueprint")
    positive = graded.positive_generators()
    if not positive:
        raise EmptyIrrelevantComplement("no positive-degree generators")
    gens = graded.blueprint.backend.gens
    points, varsets = _monomial_primes(
        graded.blueprint, sum(1 << gens.index(n) for n in positive))
    return ProjSpace(graded, points, varsets)


def closed_subscheme_from_integer_relations(ambient, relations):
    """Strengthen the pre-addition by relations valid in the integral model."""
    if isinstance(ambient, GradedBlueprint):
        return GradedBlueprint(closed_subscheme_from_integer_relations(
            ambient.blueprint, relations), ambient.degrees)
    return Blueprint(ambient.backend, [*ambient.relations, *relations],
                     budget=ambient.budget, name=f"{ambient.name or 'B'}+rels")


# ---------------------------------------------------------------------------
# Chart-glued blue schemes


@dataclass(frozen=True)
class ChartGluing:
    """U_i localized at invert_i is identified with U_j localized at invert_j
    via gen_images: generators of chart j as monomials of localized chart i."""
    i: int
    j: int
    invert_i: str
    invert_j: str
    gen_images: dict


class BlueScheme:
    """Finitely many affine charts glued along principal opens."""

    def __init__(self, charts, gluings, name=None, graded_model=None):
        self.charts = tuple(charts)
        self.gluings = tuple(gluings)
        self.name = name
        self.graded_model = graded_model
        self._points = None

    def fq_points(self, q):
        """On the graded model where `projective_fq_points` takes it (F1
        coefficients), else on the charts."""
        if q not in counting.SAMPLE_Q:
            raise TooLarge(f"no field table for q={q}")
        graded = self.graded_model
        if graded and set(graded.blueprint.backend.coeff.backend.symbols) == {ZERO, ONE}:
            return graded.fq_points(q)
        # Each point is counted on the first chart that contains it: chart i
        # counts the points where every generator it inverts on a gluing to
        # an earlier chart vanishes.
        return sum(
            counting._count_points(chart, q, {g.invert_i for g in self.gluings
                                              if g.i == i and g.j < i})
            for i, chart in enumerate(self.charts))

    def point_space(self):
        if self._points is None:
            self._points = _glue_points(self)
        return self._points

    def __repr__(self):
        return f"BlueScheme({self.name or len(self.charts)})"


class GluedSpace(UpSetOrder):
    """The colimit of the chart spectra, with the glued specialization order."""

    def __init__(self, scheme, reps, up):
        self.scheme = scheme
        self.reps = tuple(reps)        # representative (chart, point index)
        self._up = up                  # up-set bitmask per rep index
        self.chart_spaces = scheme._chart_spaces

    def __len__(self):
        return len(self.reps)

    def labels(self):
        out = []
        for ci, pi in self.reps:
            out.append(f"U{ci}:{self.chart_spaces[ci].points[pi].label()}")
        return out


def _gluing_morphism(scheme, g):
    """chart_j -> chart_i localized at invert_i, on generators."""
    src = scheme.charts[g.j]
    loc = localize(scheme.charts[g.i],
                   [scheme.charts[g.i].backend.gen_element(g.invert_i)])
    images = {name: loc.backend.normalize(img)
              for name, img in g.gen_images.items()}
    for c in src.backend.coeff.backend.symbols:
        images.setdefault(c, loc.backend.coeff_element(c))
    return BlueprintMorphism(src, loc, images), loc


def _glue_points(scheme):
    spaces = [spec(c) for c in scheme.charts]
    scheme._chart_spaces = spaces
    nodes = [(ci, pi) for ci, sp in enumerate(spaces)
             for pi in range(len(sp.points))]
    uf = _UnionFind(nodes)
    for g in scheme.gluings:
        morph, _loc = _gluing_morphism(scheme, g)
        src_backend = scheme.charts[g.j].backend
        for pi, p in enumerate(spaces[g.i].points):
            inv_elem = scheme.charts[g.i].backend.gen_element(g.invert_i)
            if p.ideal.contains(inv_elem):
                continue
            # Variables of chart j whose image lies in the extended prime.
            vars_j = []
            for name in src_backend.gens:
                img = morph.apply(src_backend.gen_element(name))
                coeff, exps = img
                in_p = coeff != ZERO and any(
                    e > 0 and p.ideal.contains(
                        scheme.charts[g.i].backend.gen_element(n2))
                    for n2, e in zip(scheme.charts[g.i].backend.gens, exps))
                if in_p:
                    vars_j.append(name)
            pj = _point_with_vars(spaces[g.j], frozenset(vars_j))
            if pj is not None:
                uf.union((g.i, pi), (g.j, pj))
    classes = {}
    for node in nodes:
        classes.setdefault(uf.find(node), []).append(node)
    reps = sorted(min(v) for v in classes.values())
    rep_of = {uf.find(r): a for a, r in enumerate(reps)}
    # a <= b iff some point of class a lies below some point of class b in
    # a common chart.
    up = []
    for r in reps:
        mask = 0
        for ci, pi in classes[uf.find(r)]:
            for pj in _bits(spaces[ci]._up[pi]):
                mask |= 1 << rep_of[uf.find((ci, pj))]
        up.append(mask)
    return GluedSpace(scheme, reps, up)


def _point_with_vars(space, varnames):
    for i, p in enumerate(space.points):
        names = set()
        backend = space.blueprint.backend
        for g in p.ideal.minimal:
            for n, e in zip(backend.gens, g[1]):
                if e:
                    names.add(n)
        if names == set(varnames):
            return i
    return None


def check_triple_overlaps(scheme):
    """Composite gluing maps agree with direct ones on generators, inside the
    doubly localized charts."""
    by_pair = {(g.i, g.j): g for g in scheme.gluings}
    for gij in scheme.gluings:
        for gjk in scheme.gluings:
            if gij.j != gjk.i:
                continue
            direct = by_pair.get((gij.i, gjk.j))
            if direct is None:
                continue
            i, j, k = gij.i, gij.j, gjk.j
            chart_i = scheme.charts[i]
            bi = chart_i.backend
            double = localize(chart_i, [bi.gen_element(gij.invert_i),
                                        _as_element(bi, direct.invert_i)])
            fj, _ = _gluing_morphism(scheme, gij)
            fk_direct, _ = _gluing_morphism(scheme, direct)
            src_k = scheme.charts[k].backend
            for name in src_k.gens:
                via_j_img = gjk.gen_images[name]
                composite = _push_monomial(scheme.charts[j].backend, via_j_img,
                                           fj, double)
                direct_img = double.backend.normalize(
                    fk_direct.apply(src_k.gen_element(name)))
                if composite != direct_img:
                    return False
    return True


def _as_element(backend, name):
    return backend.gen_element(name)


def _push_monomial(src_backend, mono, morph, target):
    coeff, exps = mono  # raw exponents in src generator order
    acc = target.backend.coeff_element(coeff)
    for name, e in zip(src_backend.gens, exps):
        if e:
            img = target.backend.normalize(morph.apply(src_backend.gen_element(name)))
            acc = target.backend.mul(acc, target.backend.power(img, e))
    return acc


def projective_space(coeff_blueprint, n, budget=None, name=None):
    """P^n as a chart-glued blue scheme with the standard affine cover.

    Chart i has generators x_{k|i} (= x_k / x_i) for k != i; U_i and U_j are
    glued along x_{j|i} resp. x_{i|j} with x_{k|j} = x_{k|i} * x_{j|i}^{-1}.
    """
    if n < 0:
        raise BlueprintError("n must be nonnegative")
    name = name or f"P{n}"
    charts = []
    gen_names = []
    for i in range(n + 1):
        gens = tuple(f"x{k}_{i}" for k in range(n + 1) if k != i)
        gen_names.append(gens)
        charts.append(Blueprint(MonomialBackend(coeff_blueprint, gens),
                                budget=budget, name=f"{name}.U{i}"))
    gluings = []
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            bi = charts[i].backend
            images = {}
            inv_index = bi.gens.index(f"x{j}_{i}")
            for k in range(n + 1):
                if k == j:
                    continue
                exps = [0] * len(bi.gens)
                exps[inv_index] -= 1
                if k != i:
                    exps[bi.gens.index(f"x{k}_{i}")] += 1
                images[f"x{k}_{j}"] = (ONE, tuple(exps))
            gluings.append(ChartGluing(i, j, f"x{j}_{i}", f"x{i}_{j}", images))
    graded = GradedBlueprint(
        Blueprint(MonomialBackend(coeff_blueprint,
                                  tuple(f"T{k}" for k in range(n + 1))),
                  budget=budget, name=f"{name}.cone"),
        {f"T{k}": 1 for k in range(n + 1)})
    return BlueScheme(charts, gluings, name=name, graded_model=graded)


# ---------------------------------------------------------------------------
# Products


@dataclass
class ProductSpace(UpSetOrder):
    """Admissible pairs of points with the componentwise order."""

    left: object
    right: object
    points: tuple        # (i, j) pairs
    excluded: tuple      # pairs whose admissibility is Unknown

    def __post_init__(self):
        self._up = [sum(1 << b for b, (k, l) in enumerate(self.points)
                        if self.left.leq(i, k) and self.right.leq(j, l))
                    for i, j in self.points]

    def __len__(self):
        return len(self.points)

    def projections_continuous(self):
        """Preimages of up-sets are up-sets (automatic for the componentwise
        order; verified explicitly)."""
        n = len(self.points)
        for a in range(n):
            for b in range(n):
                if self.lt(a, b):
                    if not self.left.leq(self.points[a][0], self.points[b][0]):
                        return False
                    if not self.right.leq(self.points[a][1], self.points[b][1]):
                        return False
        return True


def _residue_is_monoidal(space, i):
    cache = getattr(space, "_residue_monoidal", None)
    if cache is None:
        cache = space._residue_monoidal = {}
    if i not in cache:
        kappa = residue_field(space.blueprint, space.points[i])
        cache[i] = not kappa.relations
    return cache[i]


def product(left, right, compatibility=None):
    """Topological fibre product over F1.

    Pairs of monoidal (relation-free) residue fields embed into fields of any
    characteristic and are always admissible; relation-bearing pairs consult
    the `compatibility` hook and are otherwise excluded with a warning.
    """
    pts = []
    excluded = []
    for i in range(len(left.points)):
        for j in range(len(right.points)):
            li = _residue_is_monoidal(left, i)
            rj = _residue_is_monoidal(right, j)
            if li and rj:
                pts.append((i, j))
            elif compatibility is not None:
                if compatibility(left, i, right, j):
                    pts.append((i, j))
                else:
                    excluded.append((i, j))
            else:
                excluded.append((i, j))
    if excluded and compatibility is None:
        warnings.warn(f"{len(excluded)} point pairs have unknown admissibility "
                      "and were excluded", stacklevel=2)
    return ProductSpace(left, right, tuple(pts), tuple(excluded))


def fq_points_of_scheme(scheme, q):
    """F_q points of a scheme-like object, with canonical representatives."""
    if isinstance(scheme, (BlueScheme, GradedBlueprint)):
        return scheme.fq_points(q)
    if isinstance(scheme, ProjSpace):
        return scheme.graded.fq_points(q)
    if isinstance(scheme, SpecSpace):
        return counting.fq_points(scheme.blueprint, q)
    return counting.fq_points(scheme, q)
