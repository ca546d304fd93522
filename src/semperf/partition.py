"""Cartesian block partition of the element grid and halo-volume accounting.

Ranks receive contiguous blocks of elements.  The factorization of the rank
count over the three directions is chosen to minimize the total cut-face
area; ties prefer more blocks in z, then y, so the result is deterministic.
Interface words are counted in both directions (each side sends its
contribution to the shared face), and edge/corner values ride inside the
face exchanges of their adjacent faces.
"""

import math
from dataclasses import dataclass, field

from .errors import OverDecompositionError


def _chunk_ranges(extent, parts):
    """Split range(extent) into parts contiguous chunks, sizes within 1."""
    base, rem = divmod(extent, parts)
    ranges = []
    start = 0
    for b in range(parts):
        size = base + (1 if b < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def _factorizations(p, limits):
    lx, ly, lz = limits
    out = []
    for px in range(1, min(p, lx) + 1):
        if p % px:
            continue
        rest = p // px
        for py in range(1, min(rest, ly) + 1):
            if rest % py:
                continue
            pz = rest // py
            if pz <= lz:
                out.append((px, py, pz))
    return out


@dataclass(frozen=True)
class PartitionPlan:
    """Element-to-rank assignment plus the list of inter-rank cut faces."""

    n_ranks: int
    elements: tuple
    rank_grid: tuple  # blocks per direction (px, py, pz)
    block_ranges: tuple  # per direction: tuple of (start, stop) chunks
    cut_faces: tuple = field(repr=False)  # (axis, (i, j, k), rank_minus, rank_plus)

    def rank_of(self, i, j, k):
        px, py, _ = self.rank_grid
        bx = _block_index(self.block_ranges[0], i)
        by = _block_index(self.block_ranges[1], j)
        bz = _block_index(self.block_ranges[2], k)
        return bx + px * (by + py * bz)

    def block_of(self, rank):
        px, py, _ = self.rank_grid
        bx = rank % px
        by = (rank // px) % py
        bz = rank // (px * py)
        return (
            self.block_ranges[0][bx],
            self.block_ranges[1][by],
            self.block_ranges[2][bz],
        )

    @property
    def neighbor_pairs(self):
        return sorted({(min(a, b), max(a, b)) for _, _, a, b in self.cut_faces})

    @property
    def messages_per_exchange(self):
        """Halo messages per gather-scatter: one each way per adjacent pair."""
        return 2 * len(self.neighbor_pairs)


def _block_index(ranges, idx):
    for b, (start, stop) in enumerate(ranges):
        if start <= idx < stop:
            return b
    raise IndexError(f"element index {idx} outside grid")


def partition_elements(config, n_ranks):
    """Partition the element grid of config onto n_ranks."""
    ex, ey, ez = config.elements
    total = ex * ey * ez
    if n_ranks < 1:
        raise ValueError("rank count must be >= 1")
    if n_ranks > total:
        raise OverDecompositionError(
            f"{n_ranks} ranks for {total} elements: need at least one "
            "element per processor"
        )
    candidates = _factorizations(n_ranks, (ex, ey, ez))
    if not candidates:
        raise ValueError(
            f"no Cartesian factorization of {n_ranks} ranks fits the "
            f"{ex}x{ey}x{ez} element grid"
        )

    def cut_area(p):
        px, py, pz = p
        return (px - 1) * ey * ez + (py - 1) * ex * ez + (pz - 1) * ex * ey

    # minimal cut area; ties broken toward larger pz, then larger py
    best = min(candidates, key=lambda p: (cut_area(p), -p[2], -p[1]))
    ranges = (
        tuple(_chunk_ranges(ex, best[0])),
        tuple(_chunk_ranges(ey, best[1])),
        tuple(_chunk_ranges(ez, best[2])),
    )
    plan = PartitionPlan(
        n_ranks=n_ranks,
        elements=(ex, ey, ez),
        rank_grid=best,
        block_ranges=ranges,
        cut_faces=(),
    )
    faces = []
    for k in range(ez):
        for j in range(ey):
            for i in range(ex):
                here = plan.rank_of(i, j, k)
                for axis, nxt in enumerate(
                    ((i + 1, j, k), (i, j + 1, k), (i, j, k + 1))
                ):
                    if nxt[axis] >= config.elements[axis]:
                        continue
                    there = plan.rank_of(*nxt)
                    if there != here:
                        faces.append((axis, (i, j, k), here, there))
    return PartitionPlan(
        n_ranks=n_ranks,
        elements=(ex, ey, ez),
        rank_grid=best,
        block_ranges=ranges,
        cut_faces=tuple(faces),
    )


def face_points(config, axis):
    """Grid points on an element face normal to the given axis."""
    nx, ny, nz = config.degrees
    points = ((ny + 1) * (nz + 1), (nx + 1) * (nz + 1), (nx + 1) * (ny + 1))
    return points[axis]


def words_per_exchange(plan, config):
    """Words on the wire for one gather-scatter (both directions counted)."""
    return sum(
        2 * face_points(config, axis) * config.n_fields
        for axis, _, _, _ in plan.cut_faces
    )


def words_per_step(plan, config, exchanges_per_step):
    """Total interface words per step for the given exchange count."""
    if exchanges_per_step < 0:
        raise ValueError("exchanges_per_step must be >= 0")
    return exchanges_per_step * words_per_exchange(plan, config)


def compute_gamma_a(flops, words):
    """Application intensity: counted operations per word communicated."""
    if flops < 0 or words < 0:
        raise ValueError("flops and words must be non-negative")
    if words == 0:
        if flops == 0:
            raise ValueError("gamma_a undefined: no flops and no words")
        return math.inf
    return flops / words


@dataclass(frozen=True)
class AppProfile:
    """Per-step application profile: work, traffic, and their ratio."""

    flops_per_step: int
    words_per_step: int

    @property
    def gamma_a(self):
        return compute_gamma_a(self.flops_per_step, self.words_per_step)
