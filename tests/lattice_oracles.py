"""Brute-force lattice searches over a local field, kept as test oracles.

They share no decision code with the library's closed forms (residue
characters and the tame symbol at odd p, square-class coordinates and the
Hilbert form at p = 2) and run at any p:

* ``_is_square_search``: the unit u is a square iff some lattice residue a
  has w(a^2 - u) > w(4) (Hensel);
* ``_square_class_search``: the least lattice residue of u s^2 over units
  s, a complete invariant of the unit square class;
* ``_certified_hilbert_search``: a bounded primitive-triple search for
  z^2 = a x^2 + b y^2 whose hits carry a Hensel certificate.

Their cost grows like p^(k n); a lattice past ``_SEARCH_CELL_CAP`` cells
raises ``SearchExhausted``.  The triple search needs numpy.
"""

from __future__ import annotations

import itertools

from padicforms.errors import ConditionFailed, SearchExhausted
from padicforms.extensions import LocalField, LocalFieldElement
from padicforms.padics import INFINITY, int_mod_pk

_SEARCH_CELL_CAP = 1 << 21


def _unit_modulus(field: LocalField) -> int:
    """Power of p whose lattice residues decide unit square classes."""
    e = field.ramification_index
    w4 = e * field.base_context.v4
    return -((w4 + 1) // -e)  # ceil((w4+1)/e)


def _lattice_mod(x: LocalFieldElement, k: int) -> tuple:
    """The lattice coordinates of an integral x modulo p^k."""
    nums, d = x.field.lattice_coordinates(x)
    return tuple(int_mod_pk(c, d, x.field.base_context.p, k) for c in nums)


def _is_square_search(u: LocalFieldElement) -> bool:
    """Is the unit u a square: some lattice residue a has w(a^2 - u) > w(4)."""
    field = u.field
    w4 = field.ramification_index * field.base_context.v4
    q = field.base_context.p ** _unit_modulus(field)
    for coords in itertools.product(range(q), repeat=field.degree):
        a = field.from_lattice_coordinates(coords)
        diff = a * a - u
        if diff.is_zero() or diff.w() > w4:
            return True
    return False


def _square_class_search(u: LocalFieldElement) -> tuple:
    """Least lattice residue of u * s^2 over units s, modulo p^_unit_modulus."""
    field = u.field
    kp = _unit_modulus(field)
    p = field.base_context.p
    e = field.ramification_index
    f = field.residue_degree
    best = None
    for coords in itertools.product(range(p ** kp), repeat=field.degree):
        # unit mask: some pi_K^0-level coordinate must be a p-unit
        if all(coords[i * e] % p == 0 for i in range(f)):
            continue
        s = field.from_lattice_coordinates(coords)
        val = u * s * s
        res = _lattice_mod(val, kp)
        if best is None or res < best:
            best = res
    if best is None:
        raise ConditionFailed("no unit s found in the square-class search")
    return best


def _certified_hilbert_search(a: LocalFieldElement, b: LocalFieldElement) -> int:
    """Decide z^2 = a x^2 + b y^2 by searching primitive triples mod pi_K^M.

    After normalizing w(a), w(b) into {0, 1}, any primitive residue
    solution modulo pi_K^M with M >= w(4) + 3 carries one coordinate with
    Hensel slack, so a hit certifies +1 and an empty search certifies -1
    (an exact solution would reduce).  M starts at 2 w(4) + 3 and doubles
    up to 8 (w(4) + 1); hitting the cap raises SearchExhausted.
    """
    import numpy as np

    field = a.field
    ctx = field.base_context
    p = ctx.p
    e = field.ramification_index
    n = field.degree
    w4 = e * ctx.v4

    def norm01(x):
        w = x.w()
        return x * field.uniformizer_elt ** (-2 * (w // 2))

    a, b = norm01(a), norm01(b)
    m_cap = max(8 * (w4 + 1), 2 * w4 + 3)
    m = 2 * w4 + 3
    while True:
        kp = -(m // -e)  # ceil(M/e): search modulo p^kp in the lattice
        q = p ** kp
        if q ** n > _SEARCH_CELL_CAP:
            raise SearchExhausted(
                f"lattice of {q ** n} cells exceeds the search cap"
            )
        found = _search_lattice(a, b, q, np)
        if found is None:
            return -1
        x, y, z = found
        fval = z * z - a * x * x - b * y * y
        grads = [z * 2, a * x * 2, b * y * 2]
        res_w = INFINITY if fval.is_zero() else fval.w()
        ok = any(
            not g.is_zero() and res_w > 2 * g.w() for g in grads
        ) or fval.is_zero()
        if ok:
            return 1
        if m >= m_cap:
            raise SearchExhausted("certification failed up to the modulus cap")
        m = min(2 * m, m_cap)


def _search_lattice(a, b, q, np):
    """Find (x, y, z) with z^2 = a x^2 + b y^2 mod p^q-lattice, (x, y) primitive.

    Returns None when no residue triple exists; a sumset hit whose triple
    cannot be recovered raises instead of reading as "no solution".
    """
    field = a.field
    p = field.base_context.p
    n = field.degree
    e = field.ramification_index
    f = field.residue_degree

    # integer structure tensor: basis_i * basis_j in lattice coordinates
    tensor = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = field._integral_basis[i] * field._integral_basis[j]
            row = _lattice_mod(prod, _exp_of(q, p))
            tensor[i][j] = row
            tensor[j][i] = row
    a_co = list(_lattice_mod(a, _exp_of(q, p)))
    b_co = list(_lattice_mod(b, _exp_of(q, p)))

    grids = np.meshgrid(*([np.arange(q)] * n), indexing="ij")
    flat = [g.reshape(-1).astype(np.int64) for g in grids]
    total = flat[0].shape[0]

    def mul_vec(xc, yc):
        out = [np.zeros(total, dtype=np.int64) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                xij = (xc[i] * yc[j]) % q
                row = tensor[i][j]
                for c in range(n):
                    if row[c]:
                        out[c] = (out[c] + xij * row[c]) % q
        return out

    def scale(co, vec):
        # multiply the vectorized element by the fixed element with coords co
        out = [np.zeros(total, dtype=np.int64) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if co[j]:
                    row = tensor[i][j]
                    for c in range(n):
                        if row[c]:
                            out[c] = (out[c] + vec[i] * co[j] * row[c]) % q
        return out

    def encode(vec):
        out = np.zeros(total, dtype=np.int64)
        for c in range(n):
            out = out * q + vec[c]
        return out

    sq = mul_vec(flat, flat)
    unit_mask = np.zeros(total, dtype=bool)
    for i in range(f):
        unit_mask |= (flat[i * e] % p) != 0

    z_codes = encode(sq)
    square_set = np.zeros(q ** n, dtype=bool)
    square_set[z_codes] = True
    z_example = {}
    for idx in range(total):
        code = int(z_codes[idx])
        if code not in z_example:
            z_example[code] = idx

    ax = encode(scale(a_co, sq))
    by = encode(scale(b_co, sq))

    # shape (q,)*n boolean indicators; sumset via FFT convolution
    shape = (q,) * n
    ax_any = np.zeros(q ** n)
    np.add.at(ax_any, ax, 1.0)
    by_any = np.zeros(q ** n)
    np.add.at(by_any, by, 1.0)
    ax_unit = np.zeros(q ** n)
    np.add.at(ax_unit, ax[unit_mask], 1.0)
    by_unit = np.zeros(q ** n)
    np.add.at(by_unit, by[unit_mask], 1.0)

    def sumset_hits(A, B):
        fa = np.fft.fftn(A.reshape(shape))
        fb = np.fft.fftn(B.reshape(shape))
        conv = np.fft.ifftn(fa * fb).real.reshape(-1)
        return (conv > 0.5) & square_set

    hits = sumset_hits(ax_unit, by_any)
    tag = "xu"
    if not hits.any():
        hits = sumset_hits(ax_any, by_unit)
        tag = "yu"
    if not hits.any():
        return None
    target = int(np.nonzero(hits)[0][0])

    def decode(code):
        out = []
        for _ in range(n):
            out.append(code % q)
            code //= q
        return tuple(reversed(out))

    def encode_vec(vec):
        code = 0
        for c in vec:
            code = code * q + c
        return code

    target_vec = decode(target)

    # recover a concrete triple for the chosen target value
    by_index = {}
    use_unit_y = tag == "yu"
    for idx in range(total):
        if use_unit_y and not unit_mask[idx]:
            continue
        code = int(by[idx])
        if code not in by_index:
            by_index[code] = idx
    for idx in range(total):
        if tag == "xu" and not unit_mask[idx]:
            continue
        ax_vec = decode(int(ax[idx]))
        need = encode_vec([(t - v) % q for t, v in zip(target_vec, ax_vec)])
        j = by_index.get(need)
        if j is not None:
            x = field.from_lattice_coordinates([int(flat[c][idx]) for c in range(n)])
            y = field.from_lattice_coordinates([int(flat[c][j]) for c in range(n)])
            zidx = z_example[target]
            z = field.from_lattice_coordinates([int(flat[c][zidx]) for c in range(n)])
            return x, y, z
    raise ConditionFailed(f"FFT sumset hit at code {target} has no recoverable triple")


def _exp_of(q, p):
    k = 0
    while q > 1:
        q //= p
        k += 1
    return k
