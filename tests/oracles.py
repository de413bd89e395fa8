"""Reference implementations that the library replaced, kept as test oracles."""

from seifert5.abgroup import AbelianGroup
from seifert5.classify import INFINITY, FiveManifoldClass, circle_action_admissible
from seifert5.construct import _torsion_profiles, build


def enumerate_admissible_by_filter(max_torsion_order, max_k):
    """Generate and filter: every torsion profile up to the bound, for every
    k and i, kept when the gate admits it."""
    for k in range(max_k + 1):
        for counts in _torsion_profiles(max_torsion_order):
            group = AbelianGroup.from_counts(k, counts)
            for i in (0, 1, INFINITY):
                cls = FiveManifoldClass(group, i)
                if circle_action_admissible(cls).admissible:
                    yield cls, build(cls)
