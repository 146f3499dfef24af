import gc

import pytest
from hypothesis import settings

from forcelab import corpus
from forcelab import truth as truth_mod

# The same examples on every run, no example database written to disk, and
# no per-example deadline to trip on a slow or busy machine.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def fork():
    return corpus.fork()


@pytest.fixture(params=[name for name, _ in corpus.corpus_notions()])
def corpus_notion(request):
    return dict(corpus.corpus_notions())[request.param]


@pytest.fixture
def cyclic_garbage():
    """Run a call and count the objects it leaves to the cyclic collector:
    those that only reference cycles keep alive once it returns."""
    def count(call) -> int:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            call()
            gc.collect()
            return len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()
    return count


@pytest.fixture
def fresh_token_free_relations():
    """Every collapse truth at one stage lifts its atomic values from one
    kept token-free relation.  A test that changes the kernel, or corrupts
    that relation, starts without the kept ones, and no later test is
    served what it built."""
    truth_mod._token_free_relation.cache_clear()
    yield
    truth_mod._token_free_relation.cache_clear()
