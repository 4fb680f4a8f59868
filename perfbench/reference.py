"""Independent references for the benchmark's checks and rate figures.

Nothing here calls a convolution route. The direct sum evaluates the
definition of the layer,

    out_i = sum_{j in N(i)} alpha_ij * [h_j x Y(r_ij)],   r_ij = r_i - r_j,

one centre at a time, from the exact real coupling tables and the solid
harmonics of the edge vectors (divided by |r_ij|^v in unit-Y mode). The
path and multiply-add counts are enumerated here from the same definition,
not read from the library.
"""

import numpy as np

from sixjconv.angular import real_cg_table
from sixjconv.harmonics import solid_sh


def coupling_paths(l_max: int):
    """(a, v, l) triples of the layer: feature degree a, harmonic degree v,
    output degree l, all at most l_max and obeying the triangle rule."""
    return [
        (a, v, l)
        for a in range(l_max + 1)
        for v in range(l_max + 1)
        for l in range(abs(a - v), min(a + v, l_max) + 1)
    ]


def direct_sum(positions, h, l_max: int, mode: str, centre: int, sources, alpha):
    """Output row of one centre, in the library's packed layout.

    ``sources`` are the neighbour indices of ``centre``; ``alpha`` holds one
    weight per neighbour and channel, shape (len(sources), channels).
    """
    rij = positions[centre] - positions[sources]
    tab = solid_sh(l_max, rij, mode="normalized")
    ys = list(tab.blocks)
    if mode == "unit-Y":
        dist = np.linalg.norm(rij, axis=1)
        ys = [y / dist[:, None] ** v for v, y in enumerate(ys)]
    weighted = [h.degree_block(a)[sources] * alpha[:, :, None] for a in range(l_max + 1)]
    out = [0.0] * (l_max + 1)
    for a, v, l in coupling_paths(l_max):
        pair = np.einsum("jcm,jn->cmn", weighted[a], ys[v])
        out[l] = out[l] + np.tensordot(pair, real_cg_table(a, v, l), axes=([1, 2], [0, 1]))
    return np.concatenate([np.asarray(b).reshape(-1) for b in out])


def node_rel_err(got, want):
    """Per-node relative error: max |got_i - want_i| / max |want_i|, each row."""
    scale = np.abs(want).max(axis=-1)
    diff = np.abs(got - want).max(axis=-1)
    return diff / np.maximum(scale, np.finfo(float).tiny)


def edge_macs(edges: int, channels: int, l_max: int) -> int:
    """Multiply-adds of the edge route: one coupling GEMM per edge and path."""
    return edges * channels * sum(
        (2 * a + 1) * (2 * v + 1) * (2 * l + 1) for a, v, l in coupling_paths(l_max)
    )


def node_macs(nodes: int, edges: int, channels: int, l_max: int, mode: str) -> int:
    """Multiply-adds of the factorized route, dense-equivalent.

    Stage 1 couples every feature degree a with every node harmonic degree v
    into all intermediate degrees d; stage 2 adds each (a, v, d) block once
    per edge (in unit-Y mode once per harmonic degree l >= v, since the
    weight carries 1/|r_ij|^l); stage 3 sums the recoupling terms of each
    (d, u, l_out) group and couples the group with the centre's harmonic of
    degree u. Vanishing 6j symbols are not pruned, so this is an upper bound
    on the library's own work.
    """
    stage1 = stage2 = 0
    for a in range(l_max + 1):
        for v in range(l_max + 1):
            widths = sum(2 * d + 1 for d in range(abs(a - v), a + v + 1))
            stage1 += (2 * a + 1) * (2 * v + 1) * widths
            stage2 += widths * (l_max + 1 - v if mode == "unit-Y" else 1)
    groups, members = set(), 0
    for a in range(l_max + 1):
        for l in range(l_max + 1):
            for u in range(l + 1):
                v = l - u
                for d in range(abs(a - v), a + v + 1):
                    for l_out in range(abs(d - u), min(d + u, l_max) + 1):
                        if abs(a - l) <= l_out <= a + l:
                            groups.add((d, u, l_out))
                            members += 2 * d + 1
    stage3 = members + sum((2 * d + 1) * (2 * u + 1) * (2 * o + 1) for d, u, o in groups)
    return channels * (nodes * (stage1 + stage3) + edges * stage2)
