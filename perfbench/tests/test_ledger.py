import sys
import threading
import types

from ledger import Ledger, nested_calls, self_times, totals


def test_self_time_subtracts_direct_children_only():
    spans = [
        (3, 2, "grandchild", "main", 20, 30),
        (2, 1, "child", "main", 10, 40),
        (4, 1, "child", "main", 50, 60),
        (1, None, "root", "main", 0, 100),
    ]
    own = self_times(spans)
    assert own == {1: 100 - 30 - 10, 2: 30 - 10, 3: 10, 4: 10}
    # self times partition the root's interval
    assert sum(own.values()) == 100


class _Ticks:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


def test_nested_wrappers_record_parents_and_self_time():
    ledger = Ledger(clock=_Ticks())
    inner = ledger.timed(lambda: None, "inner")
    outer = ledger.timed(lambda: [inner(), inner()], "outer")
    outer()
    by_name = {name: (span_id, parent) for span_id, parent, name, *_ in ledger.spans}
    outer_id = by_name["outer"][0]
    assert all(parent == outer_id for _id, parent, name, *_ in ledger.spans if name == "inner")
    result = totals(ledger.spans)
    # outer reads the clock at 1 and 6; each inner spans one tick
    assert result["outer"].inclusive_ns == 5
    assert result["inner"].calls == 2
    assert result["inner"].self_ns == 2
    assert result["outer"].self_ns == 5 - 2
    assert nested_calls(ledger.spans, "outer", "inner") == 2


def test_same_name_nesting_counts_once_inclusive():
    spans = [(2, 1, "f", "main", 2, 4), (1, None, "f", "main", 0, 10)]
    assert totals(spans)["f"] == (2, 10, 10)


def test_spans_do_not_nest_across_threads():
    ledger = Ledger()
    started, release = threading.Event(), threading.Event()

    def blocking():
        started.set()
        release.wait(5)

    worker_call = ledger.timed(blocking, "worker")
    main_call = ledger.timed(lambda: None, "main")
    thread = threading.Thread(target=worker_call)
    thread.start()
    started.wait(5)
    main_call()
    release.set()
    thread.join(5)
    assert not thread.is_alive()
    assert all(parent is None for _id, parent, *_ in ledger.spans)


def test_wrap_function_patches_importers_and_uninstall_restores():
    def original(x):
        return x + 1

    home = types.ModuleType("ledger_test_home")
    importer = types.ModuleType("ledger_test_importer")
    home.f = importer.f = original
    sys.modules[home.__name__] = home
    sys.modules[importer.__name__] = importer
    try:
        ledger = Ledger()
        ledger.wrap_function(home, "f", "f")
        assert home.f is not original and importer.f is home.f
        assert importer.f(1) == 2
        assert [span[2] for span in ledger.spans] == ["f"]
        ledger.uninstall()
        assert home.f is original and importer.f is original
    finally:
        del sys.modules[home.__name__], sys.modules[importer.__name__]


def test_wrap_method_and_property():
    class Thing:
        def work(self):
            return self.value

        @property
        def value(self):
            return 7

    ledger = Ledger(clock=_Ticks())
    ledger.wrap_method(Thing, "work", "Thing.work")
    ledger.wrap_method(Thing, "value", "Thing.value")
    assert Thing().work() == 7
    assert nested_calls(ledger.spans, "Thing.work", "Thing.value") == 1
    ledger.uninstall()
    assert isinstance(Thing.__dict__["value"], property)
    assert Thing.work.__name__ == "work"


def test_note_counts_accumulate_from_results():
    ledger = Ledger()
    counted = ledger.timed(lambda n: list(range(n)), "f", note=lambda result, _args: {"items": len(result)})
    counted(3)
    counted(4)
    assert ledger.notes["items"] == 7
