"""One mechanism for every exact-value pin (``test_fidelity.FIDELITY``, ``test_pins.PINS``): a
:class:`Row`, a once-per-session run cache and the check whose failure prints the line to paste
back over the old value, with the reason as a comment above the row."""

import gc
from typing import Any, Callable, NamedTuple, Optional


class Row(NamedTuple):
    run: Any  # a run name, or a tuple of them (the extractor gets each result)
    extract: Callable[..., Any]
    value: Any = True
    anchor: Any = None
    tol: float = 0.0
    deviation: Optional[int] = None


def producer(runs: "dict[str, Callable[[], Any]]") -> Callable[[str], Any]:
    """``produce(name)``: the result of ``runs[name]()``, run once per session (other test files
    share it)."""
    results: "dict[str, Any]" = {}

    def produce(name):
        if name not in results:
            # Simulated values only: collector passes would add wall time and
            # change nothing. The run's garbage stays young: collected below.
            gc.disable()
            try:
                results[name] = runs[name]()
            finally:
                gc.enable()
                gc.collect(0)
        return results[name]

    return produce


def runs_of(row: Row) -> tuple:
    return (row.run,) if isinstance(row.run, str) else row.run


def check(name: str, row: Row, produce: Callable[[str], Any]) -> Any:
    """The row's observed value; a moved one fails printing the line to paste back."""
    observed = row.extract(*map(produce, runs_of(row)))
    if observed != row.value:
        raise AssertionError(f"observed {name}, to re-pin with the reason:\n    value={observed!r},")
    return observed
