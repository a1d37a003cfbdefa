"""The mutation gate's mutants: small faults that tier-1 must catch.

Each row names a file under the repository root, a text that occurs in
it exactly once, the text that replaces it, a name and the reason some
output changes, so that tier-1 must fail.  ``test_mutants.py`` checks
that each old text still occurs exactly once, so a refactor that moves
the code fails fast and the mutant is restated, not dropped.
``mutation_gate.py`` applies each mutant to a copy and runs tier-1 on it.

Only mutants that change an output belong here: a mutant that only moves
the repack schedule is pinned by call counts elsewhere.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    name: str
    reason: str


DYNAMICS = "src/trine/dynamics.py"

MUTANTS = [
    Mutant(DYNAMICS, "    K = t // 3\n", "    K = t // 3 + 1\n", "bulk-settle-K-plus-one",
           "the bulk settle then wants t / 3 + 1 C's per node: a pair with lambda -3 "
           "everywhere would pass, and passing pairs are checked one by one, which "
           "the per-class check counts see"),
    Mutant(DYNAMICS, 'runs, runs if cond1 == "complemented" else 0', "runs, 0",
           "bulk-settle-raw-flip-under-complemented",
           "[1] is then tested raw under the complemented reading: a pair whose final "
           "B lanes are equal would pass in bulk, and passing pairs are checked one "
           "by one, which the per-class check counts see"),
    Mutant(DYNAMICS,
           "    for i in range(0, len(planes), width):\n"
           "        word = 0\n"
           "        for k, plane in enumerate(planes[i:i + width]):\n",
           "    for i in range(0, len(planes), 99):\n"
           "        word = 0\n"
           "        for k, plane in enumerate(planes[i:i + 99]):\n",
           "n-c-gather-folded-into-one-int",
           "with more counter planes than lane bits, N_C's high bits spill into the "
           "next lane, so lambda reads wrong on long runs"),
    Mutant(DYNAMICS, "    if pairs is not None and t % 3 == 0:\n", "    if pairs is not None:\n",
           "bulk-settle-t-mod-3-dropped",
           "a same-step pair whose runs end at a t that 3 does not divide fails div3, "
           "yet may pass every other bulk test (ENDS_OFF_DIV3)"),
    Mutant(DYNAMICS, "    spread = (both >> (2 * width - 1)) * pair\n",
           "    spread = (both >> (2 * width - 1)) * (pair >> width)\n",
           "bulk-settle-spread-covers-one-lane",
           "the tests then skip the complement lane's final C and counts, so a "
           "complement that ends on C passes (COMPLEMENT_ENDS_ON_C)"),
    Mutant(DYNAMICS, "    if cond1 is not None and live:\n",
           "    if cond1 is not None and live and len(ids) < lanes:\n",
           "cond1-unresolved-only-after-a-repack",
           "a walk that hits max_steps before any repack leaves its running pairs "
           "PASSED instead of unresolved"),
    Mutant(DYNAMICS, "    return runs | (runs ^ halves) << width\n",
           "    return runs | (runs ^ halves ^ 1) << width\n",
           "pack-pairs-complement-bit-flipped",
           "the first pair's complement lane then starts from another start, so its "
           "readout and the pair's verdict change"),
    Mutant(DYNAMICS, "            for j in range(i, min(i + 2, len(ids)))]\n",
           "            for j in range(i, i + 1)]\n",
           "repack-keeps-only-lane-2i",
           "a repack then drops every complement lane, running or not, and pairs "
           "lose their alignment: readouts go missing or to the wrong start"),
    Mutant(DYNAMICS, "        finished.append((shift // width, recorded))\n",
           "        finished.append((shift // width, recorded + 1))\n",
           "finish-records-a-lane-one-step-late",
           "a recorded skeleton then holds one step past the mirror state, so "
           "skeletons, full-level verdicts and rt rows change"),
]
