"""Blue modules over finite blueprints: kernels and cokernels, normal
morphisms, projectivity, and K0 from the normal-exact-sequence presentation
via Smith normal form.

A module holds its action as index rows, one tuple per symbol b of the
blueprint: `rows[b][i]` is the index of b·carrier[i] in the carrier. The
constructor checks an action dict once, in one pass over the rows, with
associativity as row[a·b] = row[a]∘row[b]; principal wedges, wedges,
submodules and cokernels map their source's rows through index maps and
are not checked again. Derivations in a module are decided by the normal
forms of the completion of its pre-addition (`derivation._Completion`),
which reads no budget and raises TooLarge past
`derivation._COMPLETION_CAP` rules, and isomorphisms of modules are the one
search for finite structures, `predicates._isomorphism` on
`predicates._structure`.

Over a monoid the projective modules are the wedges of the principal
modules B·e, e ≠ 0 idempotent (Chu–Lorscheid–Santhanam, Adv. Math. 229,
2012): `is_projective` looks each wedge component up among them, and `k0`
works on shapes, counts of copies of each B·e, adding the shapes recorded
for one cokernel per action-closed subset of each B·e; it builds no wedge."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .core import (ONE, ZERO, Blueprint, BlueprintError, TooLarge, _bits,
                   _close, _close_under_action, _closed, _closure_rules,
                   _Completion, _improper_pair, _isomorphism, _members,
                   _per_blueprint, _scaled_pairs, _structure, _UnionFind)
from .snf import smith_normal_form

BASE = "*"
_MISSING = object()


class NotMono(BlueprintError):
    pass


class NotEpi(BlueprintError):
    pass


class BlueModule:
    """A finite pointed set with a blueprint action and a generated
    pre-addition; the relations induced by the blueprint's own pre-addition
    are always included. Modules are not mutated after construction.

    The carrier is the base point followed by the other elements, each
    once, in sorted order, and the action is one row per symbol b of the
    blueprint: `rows[b][i]` is the index of b·carrier[i]. `act` and
    `action` are views of the rows."""

    def __init__(self, blueprint, carrier, action, relations=(), name=None):
        """Check `action`, a dict (b, m) -> b·m in which 0·m = * and 1·m = m
        may be left out, and read it into rows: every b·m is given and lies
        in the carrier, 0 sends every element to the base point, the unit
        acts as the identity, and row[a·b] = row[a]∘row[b] (associativity).
        Every term of `relations` must lie in the carrier.

        Associativity is checked for b among the monoid generators
        (`_monoid_generators`) only, one composition per pair (a, g). That
        gives every pair: each b ≠ 0 is 1 or a word b'·g in the generators,
        and by induction on its length row[a·b'·g] = row[a·b']∘row[g] =
        row[a]∘row[b']∘row[g]; 0 acts by the zero row, and row[a] keeps
        the base point, so row[a]∘row[0] = row[0] = row[a·0]."""
        carrier = (BASE,) + tuple(sorted(set(carrier) - {BASE}))
        index = {m: i for i, m in enumerate(carrier)}
        syms = blueprint.backend.symbols
        get = action.get
        rows = {}
        for b in syms:
            row = [0]
            for m in carrier[1:]:
                v = get((b, m), BASE if b == ZERO else m if b == ONE
                        else _MISSING)
                if v is _MISSING:
                    raise BlueprintError(f"action of {b} on {m} missing")
                try:
                    row.append(index[v])
                except (KeyError, TypeError):
                    raise BlueprintError("action leaves the carrier") from None
            rows[b] = tuple(row)
        if any(rows[ZERO]):
            raise BlueprintError("0 does not send every element to the base"
                                 " point")
        if rows[blueprint.backend.one()] != tuple(range(len(carrier))):
            raise BlueprintError("the unit does not act as the identity")
        mul = blueprint.backend.mul
        for g in _monoid_generators(blueprint):
            rg = rows[g]
            for a in syms:
                if rows[mul(a, g)] != tuple(map(rows[a].__getitem__, rg)):
                    raise BlueprintError("action is not associative")
        for t in (t for l, r in relations for t in (*l, *r)):
            if t not in index:
                raise BlueprintError(f"relation term {t} not in the carrier")
        self._derive(blueprint, carrier, index, rows, relations, name)

    @classmethod
    def _of_rows(cls, blueprint, names, rows, relations=(), name=None):
        """The module on the distinct `names`, the base point first, whose
        rows index into `names`, unchecked: for the modules built from
        modules (principal wedges, wedges, submodules, cokernels), which
        meet the constructor's checks by construction. The carrier is put
        in the constructor's order and the rows renumbered to match."""
        pick = [0] + sorted(range(1, len(names)), key=names.__getitem__)
        to = [0] * len(names)
        for k, i in enumerate(pick):
            to[i] = k
        carrier = tuple(map(names.__getitem__, pick))
        self = cls.__new__(cls)
        self._derive(blueprint, carrier,
                     {m: i for i, m in enumerate(carrier)},
                     {b: tuple(to[row[i]] for i in pick)
                      for b, row in rows.items()}, relations, name)
        return self

    def _derive(self, blueprint, carrier, index, rows, relations, name):
        """Keep the rows and derive the relations: those induced by the
        blueprint's relations l = r, l·m = r·m at each element m (read off
        the columns of the rows of l and r), and the given ones."""
        self.blueprint = blueprint
        self.carrier = carrier
        self._index = index
        self.rows = rows
        self.name = name
        self._invariant = None
        self._struct = None
        n = len(carrier)

        def columns(side):
            """Per element m, the sorted indices of t·m, t in `side`."""
            return map(sorted, zip(*(rows[t] for t in side))) if side \
                else [[]] * n

        # index order is name order on the nonbase elements, so sorting and
        # orienting by indices sorts and orients by names; the base point,
        # index 0, sorts first and is dropped
        induced = set()
        for l, r in blueprint.relations:
            for cl, cr in zip(columns(l), columns(r)):
                if cl != cr:
                    nl, nr = tuple(cl[cl.count(0):]), tuple(cr[cr.count(0):])
                    if nl != nr:
                        induced.add((nl, nr) if nl <= nr else (nr, nl))
        name_of = carrier.__getitem__
        self._induced = {(tuple(map(name_of, l)), tuple(map(name_of, r)))
                         for l, r in induced}
        rels = set(self._induced)
        for l, r in relations:
            pair = self._norm_rel(l, r)
            if pair:
                rels.add(pair)
        self.relations = tuple(sorted(rels))
        self._oriented = tuple(side for l, r in self.relations
                               for side in ((l, r), (r, l)))

    def act(self, b, m):
        return self.carrier[self.rows[b][self._index[m]]]

    @cached_property
    def action(self):
        """The action as a dict (b, m) -> b·m, built from the rows on first
        use."""
        carrier = self.carrier
        return {(b, m): carrier[j] for b, row in self.rows.items()
                for m, j in zip(carrier, row)}

    def _norm_sum(self, terms):
        return tuple(sorted(t for t in terms if t != BASE))

    def _norm_rel(self, l, r):
        nl, nr = self._norm_sum(l), self._norm_sum(r)
        if nl == nr:
            return None
        return (nl, nr) if nl <= nr else (nr, nl)

    def nonbase(self):
        return self.carrier[1:]

    def __len__(self):
        return len(self.carrier)

    def __repr__(self):
        return f"BlueModule({self.name or ','.join(self.carrier)})"

    def structure(self):
        """The carrier as a `predicates._structure`: the base point coloured
        apart and one pair relation m -> b·m (m ≠ *) per symbol b, read off
        its row; 0 and 1, which act alike on every module, are left out.
        Computed on the first call and kept."""
        if self._struct is None:
            carrier = self.carrier
            fixed = (ZERO, self.blueprint.backend.one())
            self._struct = _structure(
                carrier, [m == BASE for m in carrier],
                [list(zip(carrier[1:], map(carrier.__getitem__,
                                           self.rows[b][1:])))
                 for b in self.blueprint.backend.symbols if b not in fixed])
        return self._struct

    def invariant(self):
        """Isomorphism invariant: the `structure` shape and the colours of
        the relations, each side sorted and the sides in sorted order (the
        orientation is by element names); computed on the first call and
        kept."""
        if self._invariant is None:
            s = self.structure()
            colours, at = s.colours, self._index

            def side(terms):
                return tuple(sorted(colours[at[t]] for t in terms))

            sides = [tuple(sorted((side(l), side(r))))
                     for l, r in self.relations]
            self._invariant = (s.shape, tuple(sorted(sides)))
        return self._invariant


def free_module(blueprint, k, name=None):
    """The wedge of k copies of the blueprint."""
    return _principal_wedge(blueprint, [ONE] * k, name=name or f"free{k}")


def _principal_wedge(blueprint, idempotents, name=None):
    """The wedge of the principal modules B·e, one copy per entry of
    `idempotents`: copy i holds each b·e ≠ 0 as `b·e@i`, acted on by
    a·(x@i) = (a·x)@i, with the induced pre-addition."""
    syms = blueprint.backend.symbols
    mul = blueprint.backend.mul
    names, elements, at = [BASE], [None], []
    for i, e in enumerate(idempotents):
        at.append({ZERO: 0})
        for x in {mul(b, e) for b in syms if b != ZERO} - {ZERO}:
            at[i][x] = len(names)
            names.append(f"{x}@{i}")
            elements.append((i, x))
    rows = {a: (0,) + tuple(at[i][mul(a, x)] for i, x in elements[1:])
            for a in syms}
    return BlueModule._of_rows(blueprint, names, rows, name=name)


def zero_module(blueprint):
    return free_module(blueprint, 0, name="0")


def wedge(m1: BlueModule, m2: BlueModule):
    """The coproduct: disjoint union glued at the base points."""
    names = [BASE] + [f"L.{x}" for x in m1.nonbase()] + \
        [f"R.{x}" for x in m2.nonbase()]
    shift = len(m1) - 1
    rows = {b: row + tuple(j and j + shift for j in m2.rows[b][1:])
            for b, row in m1.rows.items()}
    rels = [([f"L.{t}" for t in l], [f"L.{t}" for t in r])
            for l, r in m1.relations]
    rels += [([f"R.{t}" for t in l], [f"R.{t}" for t in r])
             for l, r in m2.relations]
    out = BlueModule._of_rows(m1.blueprint, names, rows, rels,
                              name=f"{m1.name or 'M'}+{m2.name or 'N'}")
    inc1 = ModuleMorphism(m1, out, {x: f"L.{x}" for x in m1.nonbase()})
    inc2 = ModuleMorphism(m2, out, {x: f"R.{x}" for x in m2.nonbase()})
    return out, inc1, inc2


# ---------------------------------------------------------------------------
# Morphisms


class ModuleMorphism:
    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = {BASE: BASE}
        self.mapping.update(mapping)

    def apply(self, m):
        return self.mapping[m]

    def apply_sum(self, terms):
        return tuple(sorted(t for t in (self.mapping[x] for x in terms)
                            if t != BASE))

    def is_injective(self):
        imgs = [self.mapping[m] for m in self.source.carrier]
        return len(set(imgs)) == len(imgs)

    def is_surjective(self):
        return set(self.mapping[m] for m in self.source.carrier) \
            == set(self.target.carrier)

    def __repr__(self):
        bits = ", ".join(f"{k}->{v}" for k, v in sorted(self.mapping.items()))
        return f"ModuleMorphism({bits})"


def _module_pairs(module):
    """The module's relations scaled by every nonzero symbol, with the base
    point dropped, read off the rows."""
    carrier, at = module.carrier, module._index
    rows = [row for b, row in module.rows.items() if b != ZERO]
    return _scaled_pairs(module.relations, rows,
                         lambda row, t: carrier[row[at[t]]], BASE)


@_per_blueprint
def _module_completion(module):
    """The completion of the module's pre-addition over its nonbase
    elements, kept on the module, which is not mutated."""
    return _Completion(module.nonbase(), _module_pairs(module))


def module_derive(module, lhs, rhs):
    """Whether lhs = rhs lies in the module's pre-addition, decided by the
    normal forms of `_module_completion`; TooLarge past
    `derivation._COMPLETION_CAP` rules. Equal sums need no completion."""
    l, r = module._norm_sum(lhs), module._norm_sum(rhs)
    if l == r:
        return True
    done = _module_completion(module)
    return done.normal_form(l) == done.normal_form(r)


def is_module_morphism(f: ModuleMorphism):
    src, tgt = f.source, f.target
    if f.mapping.get(BASE, BASE) != BASE:
        return False
    for m in src.carrier:
        if m not in f.mapping or f.mapping[m] not in tgt.carrier:
            return False
    for b in src.blueprint.backend.symbols:
        for m in src.carrier:
            if f.apply(src.act(b, m)) != tgt.act(b, f.apply(m)):
                return False
    for l, r in src.relations:
        if not module_derive(tgt, f.apply_sum(l), f.apply_sum(r)):
            return False
    return True


def modules_isomorphic(m1: BlueModule, m2: BlueModule):
    """The least carrier bijection preserving action and relations, or None:
    `predicates._isomorphism` on the `structure`s, which keep the action,
    with the relations compared at each leaf. Least: the elements of m1 in
    carrier order, each given the first element of m2 that works; the keys
    are in m1's carrier order."""
    if m1.invariant() != m2.invariant():
        return None
    rels2 = set(m2.relations)

    def accept(f):
        return {m1._norm_rel([f[t] for t in l], [f[t] for t in r])
                for l, r in m1.relations} - {None} == rels2

    return _isomorphism(m1.structure(), m2.structure(), accept)


class ModuleClassifier:
    """Groups modules into isomorphism classes, deterministically indexed."""

    def __init__(self):
        self.reps = []

    def classify(self, module):
        """Index of the class; registers a new class when unseen."""
        idx = self.find(module)
        if idx is None:
            idx = len(self.reps)
            self.reps.append(module)
        return idx

    def find(self, module):
        """Index of the class, or None when unregistered. Representatives
        of another invariant are refused by `modules_isomorphic` at once."""
        for idx, rep in enumerate(self.reps):
            if modules_isomorphic(rep, module) is not None:
                return idx
        return None


# ---------------------------------------------------------------------------
# Kernels, cokernels, normality


def kernel(f: ModuleMorphism):
    """Preimage of the base point, with the induced structure."""
    sub = [m for m in f.source.nonbase() if f.apply(m) == BASE]
    return _submodule(f.source, sub, name=f"ker({f.source.name or 'M'})")


def submodule_closure(module: BlueModule, subset):
    """Closure under the action and the additive rule (`ideals._close`)."""
    rules = _closure_rules(module.carrier, module.blueprint.backend.symbols,
                           module.act, module._oriented)
    members = _close(rules, _bits(module.carrier, {BASE, *subset}))
    return set(_members(module.carrier, members))


def cokernel(f: ModuleMorphism):
    """Collapse the saturated image to the base point; derivable element
    identifications are merged until the quotient is proper (each merge
    joins two classes, so the loop ends). The base point names its class."""
    tgt = f.target
    syms = tgt.blueprint.backend.symbols
    uf = _UnionFind(tgt.carrier)
    # the saturated image is closed under the action: only merges need closing
    for m in submodule_closure(tgt, {f.apply(m) for m in f.source.carrier}):
        uf.union(BASE, m)
    while True:
        base = uf.find(BASE)
        merged = {m: BASE if (r := uf.find(m)) == base else r
                  for m in tgt.carrier}
        # the classes, named by members, in carrier order, and each
        # element's class; every merge is closed under the action
        keep = sorted({tgt._index[r] for r in merged.values()})
        new = {i: k for k, i in enumerate(keep)}
        to = [new[tgt._index[merged[m]]] for m in tgt.carrier]
        rels = [([merged[t] for t in l], [merged[t] for t in r])
                for l, r in tgt.relations]
        q = BlueModule._of_rows(
            tgt.blueprint, tuple(map(tgt.carrier.__getitem__, keep)),
            {b: tuple(to[row[i]] for i in keep)
             for b, row in tgt.rows.items()},
            rels, name=f"coker({f.source.name or 'M'})")
        pair = _improper_module_pair(q)
        if pair is None:
            q.projection = merged
            return q, ModuleMorphism(tgt, q, {m: merged[m]
                                              for m in tgt.nonbase()})
        uf.union(*pair)
        _close_under_action(uf, syms, tgt.carrier, tgt.act)


def _improper_module_pair(module: BlueModule):
    """The first element, in carrier order, with a derivable identification:
    (*, m) when it is one with the base point, else (m, b) for the least b,
    read off the normal forms of a completion (`derivation._improper_pair`);
    TooLarge past `derivation._COMPLETION_CAP` rules."""
    return _improper_pair(module.nonbase(), _module_pairs(module), BASE)


def is_normal_mono(f: ModuleMorphism):
    """f equals the kernel of its cokernel (up to the image subset)."""
    if not f.is_injective():
        raise NotMono("morphism is not injective")
    _q, proj = cokernel(f)
    k, _inc = kernel(proj)
    image = {f.apply(m) for m in f.source.carrier}
    return image == set(k.carrier)


def is_normal_epi(f: ModuleMorphism):
    """f equals the cokernel of its kernel (the induced map is bijective)."""
    if not f.is_surjective():
        raise NotEpi("morphism is not surjective")
    k, inc = kernel(f)
    q, proj = cokernel(inc)
    induced = {}
    for m in f.source.carrier:
        qm = q.projection[m]
        fm = f.apply(m)
        if qm in induced and induced[qm] != fm:
            return False
        induced[qm] = fm
    values = list(induced.values())
    return len(set(values)) == len(values) and set(values) == set(f.target.carrier)


# ---------------------------------------------------------------------------
# Projectivity (wedges of the principal modules B·e) and freeness


def is_free(module: BlueModule):
    """Whether the module is isomorphic to a free module, decided without a
    search.

    Greedily cover the nonbase elements by the disjoint orbits {a·x : a ≠ 0}
    of elements x on which a ↦ a·x is injective and never reaches the base
    point. In a free module such an x is u·g for a unit u and a basis element
    g (a ↦ a·c is injective on nonzero elements only for a unit c), so every
    such orbit is a whole copy and the greedy cover cannot fail. A cover
    gives the action isomorphism a@i ↦ a·x_i from the free module, since
    the action is associative; that isomorphism carries the free module's
    relations onto the relations induced at every element, so the module
    is free iff it has no other relations."""
    rows = [row for a, row in module.rows.items() if a != ZERO]
    covered = {0}
    for x in range(1, len(module)):
        if x in covered:
            continue
        orbit = {row[x] for row in rows}
        if len(orbit) == len(rows) and not orbit & covered:
            covered |= orbit
    return len(covered) == len(module.carrier) and \
        len(module.relations) == len(module._induced)


def wedge_components(module: BlueModule):
    """Split into action-connected components (each one a submodule); only
    valid as a wedge decomposition when no relation couples components."""
    nb = list(module.nonbase())
    uf = _UnionFind(nb)
    for row in module.rows.values():
        for m, j in zip(nb, row[1:]):
            if j:
                uf.union(m, module.carrier[j])
    groups = {}
    for m in nb:
        groups.setdefault(uf.find(m), []).append(m)
    comps = [sorted(v) for v in sorted(groups.values())]
    for l, r in module.relations:
        roots = {uf.find(t) for t in l + r}
        if len(roots) > 1:
            return None
    return [_submodule(module, comp)[0] for comp in comps]


def is_projective(module: BlueModule):
    """Whether the module is a wedge of principal modules B·e, e ≠ 0
    idempotent, the projectives over a monoid.

    Free modules are found by `is_free`, without a search. Otherwise a
    relation that couples two action-connected components leaves no wedge
    decomposition, and the module is projective iff every component is
    found among the classes of B·e (`_principal_classifier`). Lifting
    against normal epis alone is strictly weaker (it cannot refute
    fixed-point modules over blue fields) and is exercised as a necessary
    condition in the tests.
    """
    if is_free(module):
        return True
    return _wedge_shape(module, _principal_classifier(module.blueprint)) \
        is not None


def _wedge_shape(module, principal):
    """The number of components in each class of `principal` (a
    `ModuleClassifier` of the classes of B·e) when the module is a wedge of
    B·e, else None."""
    comps = wedge_components(module)
    found = [principal.find(c) for c in comps or ()]
    if comps is None or None in found:
        return None
    return tuple(found.count(j) for j in range(len(principal.reps)))


# ---------------------------------------------------------------------------
# Module enumeration and K0


@_per_blueprint
def _monoid_generators(blueprint):
    """A minimal generating subset of the multiplicative monoid besides 0,1,
    kept on the blueprint."""
    syms = [s for s in blueprint.backend.symbols if s not in (ZERO, ONE)]
    for r in range(len(syms) + 1):
        for sub in itertools.combinations(syms, r):
            generated = {ZERO, ONE}
            frontier = list(sub)
            generated.update(sub)
            while frontier:
                x = frontier.pop()
                for y in list(generated):
                    z = blueprint.backend.mul(x, y)
                    if z not in generated:
                        generated.add(z)
                        frontier.append(z)
            if generated == set(blueprint.backend.symbols):
                return sub
    return tuple(syms)


def enumerate_modules(blueprint, size_bound):
    """All blue modules with carrier size <= size_bound and the minimal
    induced pre-addition, up to isomorphism, deterministically ordered.

    For each size the generator images (g, m) are chosen by backtracking,
    generator first, then carrier element, each trying the carrier in
    order, so complete choices arrive in `itertools.product` order. Each
    symbol acts through a fixed word in the generators (breadth-first from
    ONE). A partial choice is cut as soon as, for a generator g, a nonzero
    symbol a and an element m, the images of m under g·a and under g after
    a are both chosen and differ; g·a = 0 sends m to the base point. Every
    cut choice is one that `_complete_action` rejects, so the modules kept,
    their names and their order are those of the loop over the whole
    product."""
    _check_size_bound(size_bound)
    gens = _monoid_generators(blueprint)
    checks = _action_checks(blueprint, gens)
    classifier = ModuleClassifier()
    out = []
    for size in range(1, size_bound + 1):
        carrier = [BASE] + [f"m{i}" for i in range(size - 1)]
        slots = [(g, m) for g in gens for m in carrier[1:]]
        gen_maps = {g: {BASE: BASE} for g in gens}

        def consistent():
            for left, right in checks:
                for m in carrier[1:]:
                    lv = _run_word(gen_maps, left, m)
                    if lv is None:
                        continue
                    rv = _run_word(gen_maps, right, m)
                    if rv is not None and rv != lv:
                        return False
            return True

        def backtrack(i):
            if i == len(slots):
                action = _complete_action(blueprint, gens, gen_maps, carrier)
                if action is None:
                    return
                try:
                    module = BlueModule(blueprint, tuple(carrier),
                                        action, (), name=f"M{len(out)}")
                except BlueprintError:
                    return
                if classifier.classify(module) == len(out):
                    out.append(module)
                return
            g, m = slots[i]
            for v in carrier:
                gen_maps[g][m] = v
                if consistent():
                    backtrack(i + 1)
            del gen_maps[g][m]

        backtrack(0)
    return out


def _check_size_bound(size_bound):
    if size_bound < 1:
        raise ValueError("size bound below 1: every module holds the base"
                         " point")
    if size_bound > 8:
        raise TooLarge("size bound above 8")


def _action_checks(blueprint, gens):
    """Pairs of generator words (applied right to left) that any action must
    send every element to the same place: word(g·a) and g·word(a), for each
    generator g and nonzero symbol a reached from ONE. A left word None
    stands for g·a = 0, which sends everything to the base point."""
    mul = blueprint.backend.mul
    words = {ONE: ()}
    frontier = [ONE]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(g, x)
                if y not in words:
                    words[y] = (g,) + words[x]
                    nxt.append(y)
        frontier = nxt
    checks = []
    for g in gens:
        for a, word in words.items():
            if a == ZERO:
                continue
            c = mul(g, a)
            left = None if c == ZERO else words[c]
            right = (g,) + word
            if left != right:
                checks.append((left, right))
    return checks


def _run_word(gen_maps, word, m):
    """The image of m under a word of generators, or None while some image
    along the way is unchosen; the word None maps to the base point."""
    if word is None:
        return BASE
    for g in reversed(word):
        m = gen_maps[g].get(m)
        if m is None:
            return None
    return m


def _complete_action(blueprint, gens, gen_maps, carrier):
    """Extend generator actions to the whole monoid; None on inconsistency.
    On the zero table 1 = 0 must act as the identity and also send every
    element to the base point, which leaves the zero module alone."""
    syms = blueprint.backend.symbols
    identity = {m: m for m in carrier}
    known = {ZERO: {m: BASE for m in carrier}}
    if known.setdefault(blueprint.backend.one(), identity) != identity:
        return None
    for g, mp in gen_maps.items():
        known[g] = dict(mp)
    changed = True
    while changed:
        changed = False
        for a in list(known):
            for b in list(known):
                c = blueprint.backend.mul(a, b)
                composed = {m: known[a][known[b][m]] for m in carrier}
                if c in known:
                    if known[c] != composed:
                        return None
                else:
                    known[c] = composed
                    changed = True
    if set(known) != set(syms):
        return None
    return {(b, m): known[b][m] for b in syms for m in carrier}


@dataclass
class K0Result:
    generators: tuple        # names of projective iso classes
    relations: tuple         # integer rows over the generators
    rank: int
    torsion: tuple

    def is_infinite_cyclic(self):
        return self.rank == 1 and not self.torsion

    def __repr__(self):
        t = " x ".join(f"Z/{d}" for d in self.torsion)
        body = f"Z^{self.rank}" + (f" x {t}" if t else "")
        return f"K0({body})"


def _action_closed_subsets(module):
    carrier = module.carrier
    rules = _closure_rules(carrier, module.blueprint.backend.symbols,
                           module.act, ())
    return [sub for r in range(len(carrier))
            for sub in itertools.combinations(module.nonbase(), r)
            if _closed(rules, _bits(carrier, {BASE, *sub}))]


def _submodule(module, subset, name=None):
    """The action-closed `subset` with the relations inside it, and its
    inclusion."""
    subset = set(subset) | {BASE}
    keep = sorted(map(module._index.__getitem__, subset))
    new = {i: k for k, i in enumerate(keep)}
    try:
        rows = {b: tuple(new[row[i]] for i in keep)
                for b, row in module.rows.items()}
    except KeyError:
        raise BlueprintError("action leaves the carrier") from None
    rels = [(l, r) for l, r in module.relations
            if all(t in subset for t in l + r)]
    sub = BlueModule._of_rows(module.blueprint,
                              tuple(map(module.carrier.__getitem__, keep)),
                              rows, rels, name=name)
    inc = ModuleMorphism(sub, module, {m: m for m in subset if m != BASE})
    return sub, inc


@_per_blueprint
def _principal_modules(blueprint):
    """The pairs (e, B·e), one for each isomorphism class of B·e with e ≠ 0
    idempotent, in symbol order; kept on the blueprint."""
    mul = blueprint.backend.mul
    classifier = ModuleClassifier()
    out = []
    for e in blueprint.backend.symbols:
        if e != ZERO and mul(e, e) == e:
            be = _principal_wedge(blueprint, [e])
            if classifier.classify(be) == len(out):
                out.append((e, be))
    return out


@_per_blueprint
def _principal_classifier(blueprint):
    """The `ModuleClassifier` of the classes of `_principal_modules`, kept
    on the blueprint; its classes are indexed as they are listed."""
    classifier = ModuleClassifier()
    for _, be in _principal_modules(blueprint):
        classifier.classify(be)
    return classifier


def _principal_records(blueprint, size_bound):
    """Per class of B·e (`_principal_modules`), the pairs (shape of S, shape
    of B·e/S) for the action-closed subsets S of B·e with S → B·e a normal
    mono and S, B·e/S projective; a shape counts the copies of each class.
    A B·e larger than `size_bound` is not touched: no wedge that holds it
    fits."""
    classifier = _principal_classifier(blueprint)
    records = []
    for _, be in _principal_modules(blueprint):
        pairs = []
        for s in _action_closed_subsets(be) if len(be) <= size_bound else ():
            sub, inc = _submodule(be, s)
            if (sub_shape := _wedge_shape(sub, classifier)) is None:
                continue
            q, proj = cokernel(inc)
            # normal iff the kernel of proj is S again; `is_normal_epi(proj)`
            # would rebuild the cokernel of that kernel, and so get proj back
            if {x for x in be.carrier if proj.apply(x) == BASE} == \
                    set(sub.carrier) and \
                    (q_shape := _wedge_shape(q, classifier)) is not None:
                pairs.append((sub_shape, q_shape))
        records.append(pairs)
    return records


def k0(blueprint, size_bound=6):
    """The Grothendieck group of projectives under normal short exact
    sequences, presented by generators (iso classes, carrier <= size_bound)
    and relations [M] = [K] + [M/K]; invariant factors via Smith normal
    form.

    Over a monoid the projectives are the wedges of principal modules B·e,
    e ≠ 0 idempotent (Chu–Lorscheid–Santhanam, Adv. Math. 229, 2012), so
    the generators are the shapes (copies of each class of B·e) whose
    wedges fit the bound, sorted by size. No module is enumerated and no
    wedge is built: an action-closed K ⊆ M is one action-closed subset per
    component of M, and no relation of M couples two components, so M/K is
    the wedge of the parts' cokernels, K → M is a normal mono iff each
    part's inclusion is, and K, M/K are projective iff all parts are, with
    the parts' shapes summed. A row is such a sum of `_principal_records`
    for each multiset of choices over equal components (permuting them is
    an automorphism of M)."""
    _check_size_bound(size_bound)
    if not isinstance(blueprint, Blueprint) or \
            blueprint.backend.kind != "finite":
        raise BlueprintError("k0 expects a finite-table blueprint")
    principal = _principal_modules(blueprint)
    sizes = [len(be) - 1 for _, be in principal]

    def carrier_size(shape):
        return 1 + sum(c * n for c, n in zip(shape, sizes))

    shapes = [()]
    for _ in sizes:
        shapes = [sh + (c,) for sh in shapes for c in range(size_bound)
                  if carrier_size(sh + (c,)) <= size_bound]
    shapes.sort(key=carrier_size)
    index = {sh: i for i, sh in enumerate(shapes)}
    records = _principal_records(blueprint, size_bound)
    zero = (0,) * len(principal)
    rows = set()
    for im, sh in enumerate(shapes):
        # one choice per copy, nondecreasing over the copies of each B·e
        for picks in itertools.product(*(
                itertools.combinations_with_replacement(pairs, c)
                for pairs, c in zip(records, sh))):
            chosen = list(itertools.chain.from_iterable(picks))
            row = [0] * len(shapes)
            row[im] += 1
            for part in (k for k, _ in chosen), (q for _, q in chosen):
                row[index[tuple(map(sum, zip(zero, *part)))]] -= 1
            if any(row):
                rows.add(tuple(row))
    rows = sorted(rows)
    factors = smith_normal_form([list(r) for r in rows]) if rows else []
    rank = len(shapes) - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    names = tuple(f"P{i}(size {carrier_size(sh)})"
                  for i, sh in enumerate(shapes))
    return K0Result(names, tuple(rows), rank, torsion)
