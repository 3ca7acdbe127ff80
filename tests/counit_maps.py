"""Reference matrices of counit maps, built column by column from the
library's sparse Delta terms and counital maps; tests compare with them."""

from frobkit.exactlin import Mat, Vec
from frobkit.finalg import ComultData
from frobkit.whopf import WeakHopfData, epsilon_s, epsilon_t


def eps_tensor_id(c: ComultData, eps: Vec) -> Mat:
    """Matrix of x -> (eps (x) id) Delta(x); equals the identity iff eps is a
    left counit."""
    d = c.algebra.dim
    return Mat(d, d, [(q, j, v * eps.get(p)) for j in range(d) for p, q, v in c.delta_pairs(j)])


def id_tensor_eps(c: ComultData, eps: Vec) -> Mat:
    """Matrix of x -> (id (x) eps) Delta(x); equals the identity iff eps is a
    right counit."""
    d = c.algebra.dim
    return Mat(d, d, [(p, j, v * eps.get(q)) for j in range(d) for p, q, v in c.delta_pairs(j)])


def epsilon_s_matrix(h: WeakHopfData) -> Mat:
    return Mat.from_columns(h.dim, [epsilon_s(h, Vec.basis(h.dim, j)) for j in range(h.dim)])


def epsilon_t_matrix(h: WeakHopfData) -> Mat:
    return Mat.from_columns(h.dim, [epsilon_t(h, Vec.basis(h.dim, j)) for j in range(h.dim)])
