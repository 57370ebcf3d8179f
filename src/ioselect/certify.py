"""An independent check of the certificate behind condition (b).

Condition (b) holds for a selection exactly when B(A, B, C, K) of the
system restricted to it has a perfect matching.  The pipeline hands its
final selection over together with one such matching, and
:func:`certify_cycle_cover` checks it against the instance in linear time.
It reads only the rows of A, B, C and K, the selection and the matched
pairs: it shares no graph, flow or matching code with the solver that
found them, so a defect there cannot also hide here.  The rows are the
very lists the solver's graph holds, and neither side writes to them.

Pairs are (left, right) vertex ids in the package's numbering: states
0..n-1, inputs n..n+m-1, outputs n+m..n+m+p-1, the left id standing for
the primed vertex.
"""

from __future__ import annotations

from typing import Iterable

from ioselect.system_model import CompleteK, Selection, StructuredSystem


def certify_cycle_cover(
    system: StructuredSystem, sel: Selection, pairs: Iterable[tuple[int, int]]
) -> bool:
    """True iff ``pairs`` is a perfect matching of B(A, B, C, K) on the
    full vertex set in which only the channels of ``sel`` leave their own
    edges.

    Every left and every right vertex must appear exactly once, and each
    pair must be one of:

    * (x'_i, x_j) with A_ij starred;
    * (x'_i, u_j) with B_ij starred and input j selected;
    * (y'_j, x_i) with C_ji starred and output j selected;
    * (u'_i, y_j) with input i and output j selected and K_ij starred
      (every pair, when K is the complete token);
    * (u'_i, u_i) or (y'_j, y_j), a channel's own edge.

    An unselected input or output can then only sit on its own edge, so the
    pairs less those own edges are a perfect matching of the restricted
    system's graph: its states are spanned by disjoint cycles.
    """
    n, m, p = system.n, system.m, system.p
    out0, size = n + m, n + m + p
    a_rows, b_rows, c_rows = system.A.by_row, system.B.by_row, system.C.by_row
    k_rows = None if isinstance(system.K, CompleteK) else system.K.by_row
    inputs, outputs = sel.inputs, sel.outputs
    left_seen = [False] * size
    right_seen = [False] * size
    count = 0
    for left, right in pairs:
        if not (0 <= left < size and 0 <= right < size) or left_seen[left] or right_seen[right]:
            return False
        left_seen[left] = right_seen[right] = True
        count += 1
        if left == right and left >= n:
            continue  # a channel's own edge
        if left < n:
            if right < n:
                ok = right in a_rows[left]
            else:
                j = right - n
                ok = right < out0 and j in inputs and j in b_rows[left]
        elif left < out0:
            i, j = left - n, right - out0
            ok = (
                right >= out0
                and i in inputs
                and j in outputs
                and (k_rows is None or j in k_rows[i])
            )
        else:
            j = left - out0
            ok = right < n and j in outputs and right in c_rows[j]
        if not ok:
            return False
    return count == size
