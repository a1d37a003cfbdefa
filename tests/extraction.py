"""Run pairs as ``ipf`` reads them, and ``rt.extract_rows`` input for
hand-built run pairs."""

from trine.ipf import filled_rows
from trine.rt import slot_codes


def lanes_of(run, comp):
    """The pair of two runs as ``ipf`` reads it (see ``ipf.PairLanes``)."""
    return run.readout, comp.readout, run.skeleton_text, comp.skeleton_text


def pair_codes(runs, swapped=False):
    """The ``extract_rows`` item of a run pair (see ``rt.PairCodes``):
    its slot codes from ``filled_rows``, its node count and ``swapped``."""
    return slot_codes(filled_rows(lanes_of(*runs))), runs[0].graph.node_count, swapped
