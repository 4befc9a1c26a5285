import hypothesis
import pytest

from padegalois import factor, galois, polynomials

hypothesis.settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.register_profile(
    "thorough",
    max_examples=500,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("default")


@pytest.fixture(autouse=True)
def _cold_memos():
    """Every test starts with empty memos, so the work it counts below
    them (modular powers, gcds, DDF calls, Hensel steps, root searches,
    resolvent builds, block walks) does not depend on which test ran
    before it; no walk is kept for factoring to read its stages off."""
    factor._degree_table_memo.cache_clear()
    factor._DegreeTable.last_walk = None
    factor._lift_and_recombine_memo.cache_clear()
    factor._nonzero_roots_memo.cache_clear()
    polynomials._discriminant_memo.cache_clear()
    galois._squarefree_resolvent_memo.cache_clear()
