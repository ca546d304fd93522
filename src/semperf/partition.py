"""Cartesian block partition of the element grid and halo-volume accounting.

Ranks receive contiguous blocks of elements.  The factorization of the rank
count over the three directions is chosen to minimize the total cut-face
area; ties prefer more blocks in z, then y, so the result is deterministic.
Interface words are counted in both directions (each side sends its
contribution to the shared face), and edge/corner values ride inside the
face exchanges of their adjacent faces.
"""

from dataclasses import dataclass

from .counts import require
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


def cut_face_counts(rank_grid, elements):
    """Element faces cut by a rank grid, per normal axis.

    Each of the p_a - 1 internal block boundaries along axis a cuts every
    element face of the grid's cross-section normal to a.
    """
    (px, py, pz), (ex, ey, ez) = rank_grid, elements
    return ((px - 1) * ey * ez, (py - 1) * ex * ez, (pz - 1) * ex * ey)


@dataclass(frozen=True)
class PartitionPlan:
    """Element-to-rank assignment: a Cartesian grid of element blocks."""

    n_ranks: int
    elements: tuple
    rank_grid: tuple  # blocks per direction (px, py, pz)
    block_ranges: tuple  # per direction: tuple of (start, stop) chunks

    def _block_coords(self, rank):
        px, py, _ = self.rank_grid
        return (rank % px, (rank // px) % py, rank // (px * py))

    def block_of(self, rank):
        return tuple(
            ranges[b]
            for ranges, b in zip(self.block_ranges, self._block_coords(rank))
        )

    def neighbors(self, rank):
        """Per axis, the (minus, plus) face-neighbor ranks of a rank's block.

        None stands for the box boundary on that side.
        """
        px, py, _ = self.rank_grid
        strides = (1, px, px * py)
        return tuple(
            (
                rank - stride if b > 0 else None,
                rank + stride if b < p - 1 else None,
            )
            for b, p, stride in zip(
                self._block_coords(rank), self.rank_grid, strides
            )
        )

    @property
    def cut_face_counts(self):
        return cut_face_counts(self.rank_grid, self.elements)

    @property
    def messages_per_exchange(self):
        """Halo messages per gather-scatter, summed over the ranks."""
        return sum(map(sum, map(self._face_sends, range(self.n_ranks))))

    def _face_sends(self, rank):
        """Per axis, the number of face neighbors the rank sends to."""
        return [2 - pair.count(None) for pair in self.neighbors(rank)]

    def rank_counts(self, rank, config):
        """Halo words and messages the rank sends per gather-scatter: one
        message to each face neighbor, carrying the block's boundary plane
        (its element faces times an element face's points, per field)."""
        nodes = [
            (stop - start) * (n + 1)
            for (start, stop), n in zip(self.block_of(rank), config.degrees)
        ]
        volume = nodes[0] * nodes[1] * nodes[2]
        sends = self._face_sends(rank)
        words = sum(s * (volume // n) for s, n in zip(sends, nodes))
        return config.n_fields * words, sum(sends)


def partition_elements(config, n_ranks):
    """Partition the element grid of config onto n_ranks."""
    ex, ey, ez = config.elements
    total = ex * ey * ez
    require("n_ranks", n_ranks, 1, integer=True)
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
    # minimal cut area; ties broken toward larger pz, then larger py
    best = min(
        candidates,
        key=lambda p: (sum(cut_face_counts(p, (ex, ey, ez))), -p[2], -p[1]),
    )
    return PartitionPlan(
        n_ranks=n_ranks,
        elements=(ex, ey, ez),
        rank_grid=best,
        block_ranges=tuple(
            tuple(_chunk_ranges(e, p)) for e, p in zip((ex, ey, ez), best)
        ),
    )


def words_per_step(plan, config, exchanges_per_step):
    """Halo words per step, summed over the ranks."""
    if exchanges_per_step < 0:
        raise ValueError("exchanges_per_step must be >= 0")
    return exchanges_per_step * sum(
        plan.rank_counts(rank, config)[0] for rank in range(plan.n_ranks)
    )
