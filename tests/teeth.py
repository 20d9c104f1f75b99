"""Shared, cached observations of the teeth matrix (one run per cell).

Every test that reads a (mutation, pass) cell goes through here, so each
static pass runs once per mutation and each runnable mutation is
explored and stress-run once per session, whichever test asks first.
"""

import functools

from repro.analysis.explore.strategies import DEFAULT_KNOBS, check_mutation
from repro.analysis.flows import lint_flows
from repro.analysis.mutations import MUTATIONS, STATIC_PASSES
from repro.analysis.races import lint_races

#: the explore budget of the CI smoke tier (`explore --ci-smoke`)
KNOBS = dict(DEFAULT_KNOBS, schedules=120, depth=10)

STATIC_LINTS = {"flows": lint_flows, "races": lint_races}


@functools.lru_cache(maxsize=None)
def static_keys(pass_name, mutation=None):
    """Finding keys of one static pass over the tree, doctored by
    ``mutation`` (a name) if given."""
    overrides = MUTATIONS[mutation].overrides() if mutation else None
    return frozenset(f.key for f in
                     STATIC_LINTS[pass_name](source_overrides=overrides))


@functools.lru_cache(maxsize=None)
def dynamic_verdict(mutation):
    """The mutation check's verdict for one runnable mutation."""
    return check_mutation({"mutation": mutation, "knobs": KNOBS})


def observed(mutation, pass_name):
    """What one pass reports over one mutation: the new finding keys of
    a static pass, the violation codes of a dynamic one."""
    if pass_name in STATIC_LINTS:
        nominal = static_keys(pass_name)
        mutated = static_keys(pass_name, mutation)
        assert nominal <= mutated, \
            f"{mutation} suppresses nominal {pass_name} findings"
        return sorted(mutated - nominal)
    verdict = dynamic_verdict(mutation)
    return verdict["nominal_codes" if pass_name == "explore"
                   else "chaos_codes"]


def assert_cell(mutation, pass_name):
    """The observed cell matches the mutation's pinned one."""
    got = observed(mutation, pass_name)
    pinned = MUTATIONS[mutation].caught.get(pass_name, ())
    if pass_name in STATIC_PASSES:
        ok = set(got) == set(pinned)
    else:
        ok = bool(set(got) & set(pinned)) if pinned else not got
    assert ok, \
        f"{mutation} x {pass_name}: observed {got}, pinned {list(pinned)}"
