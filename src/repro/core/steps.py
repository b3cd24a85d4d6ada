"""Step generators and the two drivers that run them.

A lookup is one loop of message exchanges (Section IV-B).  Each piece of
it is written once, as a generator that yields *steps* and is resumed
with each step's result, or has the step's :class:`DeliveryError`
thrown in: :meth:`repro.core.engine.LookupEngine.search_steps` yields
one step per exchange, and each service operation in
:mod:`repro.core.service` yields its request messages.  The generator
holds the whole policy; a driver only decides how a step is carried
out:

- :func:`run_steps` performs each step inline and returns the outcome
  (the blocking path: ``transport.send``, the paper's sequential feed);
- :func:`start_steps` starts each step with callbacks that resume the
  generator (the continuation path: ``transport.send_async`` on an
  event kernel or a socket loop).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.net.transport import DeliveryError

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer


#: A step generator: yields steps, is resumed with each step's result (or
#: has its :class:`DeliveryError` thrown in), and returns its outcome.
Steps = Generator[Any, Any, Any]


def run_steps(steps: Steps, perform: Callable[[Any], Any]) -> Any:
    """Blocking driver: ``perform`` each yielded step inline.

    Returns the generator's outcome; a :class:`DeliveryError` the
    generator does not handle propagates to the caller.
    """
    try:
        step = next(steps)
        while True:
            try:
                result = perform(step)
            except DeliveryError as error:
                step = steps.throw(error)
            else:
                step = steps.send(result)
    except StopIteration as stop:
        return stop.value


def start_steps(
    steps: Steps,
    dispatch: Callable[[Any, Callable, Callable], None],
    on_done: Callable[[Any], None],
    on_error: Callable[[DeliveryError], None],
    tracer: Optional["Tracer"] = None,
) -> None:
    """Continuation driver: ``dispatch(step, on_result, on_error)``
    starts each yielded step, and its callbacks resume the generator.

    The outcome goes to ``on_done``; a :class:`DeliveryError` the
    generator does not handle goes to ``on_error``.  With a tracer, the
    span current now is re-activated around every resumption and
    dispatch, since continuations fire long after other lookups moved
    the current-span pointer; ``on_done``/``on_error`` run outside it.
    """
    span = tracer.current if tracer is not None else None

    def advance(value: Any, failed: bool):
        try:
            step = steps.throw(value) if failed else steps.send(value)
        except StopIteration as stop:
            return on_done, stop.value
        except DeliveryError as error:
            return on_error, error
        dispatch(step, resume, fail)
        return None

    def resume(value: Any = None, failed: bool = False) -> None:
        if tracer is None:
            finished = advance(value, failed)
        else:
            with tracer.activated(span):
                finished = advance(value, failed)
        if finished is not None:
            callback, outcome = finished
            callback(outcome)

    def fail(error: DeliveryError) -> None:
        resume(error, True)

    resume()
