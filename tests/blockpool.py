"""Test helpers that make the block pool of ``ccdsim.propagator`` run blocks.

An interval of several blocks is worked by the calling thread and the pool
threads from one queue, so left alone the caller may claim every block before
a pool thread starts, or a pool thread finish its block before the caller
starts one. ``hold_the_first_blocks`` removes both cases without a sleep.
"""
import threading

from ccdsim import propagator

#: a wait longer than this means that the other thread never started a block
WAIT_S = 60.0


def on_pool_thread() -> bool:
    return threading.current_thread().name.startswith("ccdsim-block")


def hold_the_first_blocks(monkeypatch, on_pool=None) -> set[str]:
    """Patch ``propagator`` so that in every interval that builds the pool, the
    caller's first block and each pool thread's first block wait until the
    other side has started one: a pool thread runs a block, and it overlaps a
    block of the caller. Returns the names of the threads that ran blocks.

    ``on_pool(step_unitaries, *args)``, when given, runs each block a pool
    thread claims in place of ``step_unitaries(*args)``: a fault that fires
    only on a pool thread. The hold wraps the ``_step_unitaries`` it finds.
    """
    on_caller, on_helper = threading.Event(), threading.Event()
    on_caller.set()
    on_helper.set()
    pool, inner = propagator._pool, propagator._step_unitaries
    threads = set()

    def pool_spy(workers):
        # no thread has started a block of this interval: the helpers are not submitted yet
        on_caller.clear()
        on_helper.clear()
        return pool(workers)

    def step_spy(*args):
        threads.add(threading.current_thread().name)
        if not on_pool_thread():
            on_caller.set()
            assert on_helper.wait(WAIT_S), "no pool thread started a block"
            return inner(*args)
        on_helper.set()
        assert on_caller.wait(WAIT_S), "the calling thread started no block"
        return on_pool(inner, *args) if on_pool else inner(*args)

    monkeypatch.setattr(propagator, "_pool", pool_spy)
    monkeypatch.setattr(propagator, "_step_unitaries", step_spy)
    return threads
