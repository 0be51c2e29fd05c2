"""Finite orders stored as one up-set bitmask per element: bit j of the i-th
mask is set iff element i <= element j. Spectra, glued spaces, products and
the posets of order complexes all keep their order this way."""

from __future__ import annotations


def _bits(mask):
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _up_masks(keysets):
    """Up-set masks of the inclusion order on `keysets`: bit j of the i-th
    mask is set iff keysets[i] <= keysets[j]."""
    holders = {}
    for j, keys in enumerate(keysets):
        for k in keys:
            holders[k] = holders.get(k, 0) | (1 << j)
    out = []
    for keys in keysets:
        mask = (1 << len(keysets)) - 1
        for k in keys:
            mask &= holders[k]
        out.append(mask)
    return out


def _closure(n, pairs):
    """Up-set masks of the reflexive transitive closure of the index pairs
    (i, j), each read as i <= j, on n elements."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    for k in range(n):
        bit, row = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    return up


def _hasse(up):
    """Hasse edges (i, j) of the order given by up-set masks, in (i, j)
    order: j strictly above i with nothing strictly between."""
    strict = [m & ~(1 << i) for i, m in enumerate(up)]
    out = []
    for i, above in enumerate(strict):
        through = 0
        for k in _bits(above):
            through |= strict[k]
        out.extend((i, j) for j in _bits(above & ~through))
    return out


def _heights(up):
    """Per element, the length of the longest strict chain ending there, in
    one pass over a linear extension: an element lies strictly below another
    only when its up-set is strictly larger."""
    out = [0] * len(up)
    for i in sorted(range(len(up)), key=lambda i: -up[i].bit_count()):
        h = out[i] + 1
        for j in _bits(up[i] & ~(1 << i)):
            if out[j] < h:
                out[j] = h
    return out


def _minimal(up, mask):
    """The elements of `mask` with no other element of `mask` below them."""
    above = 0
    for i in _bits(mask):
        above |= up[i] & ~(1 << i)
    return mask & ~above


class UpSetOrder:
    """Index-level order queries on `self._up`, one up-set mask per point."""

    def leq(self, i, j):
        return bool(self._up[i] >> j & 1)

    def lt(self, i, j):
        return i != j and bool(self._up[i] >> j & 1)

    def closed_points(self):
        return [i for i, m in enumerate(self._up) if not m & ~(1 << i)]

    def generic_points(self):
        return list(_bits(_minimal(self._up, (1 << len(self._up)) - 1)))

    def covers(self):
        """Hasse edges (i, j): j specializes i, nothing strictly between."""
        return _hasse(self._up)

    def up_set(self, indices):
        indices = frozenset(indices)
        mask = 0
        for j in indices:
            mask |= self._up[j]
        return indices | frozenset(_bits(mask))

    def is_connected(self):
        return len(self.connected_components()) <= 1

    def connected_components(self):
        adjacent = list(self._up)
        for i, m in enumerate(self._up):
            for j in _bits(m):
                adjacent[j] |= 1 << i
        out = []
        left = (1 << len(self._up)) - 1
        while left:
            comp = frontier = left & -left
            while frontier:
                reach = 0
                for k in _bits(frontier):
                    reach |= adjacent[k]
                frontier = reach & ~comp
                comp |= reach
            left &= ~comp
            out.append(list(_bits(comp)))
        return out
