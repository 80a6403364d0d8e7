"""Per-layer tracing by wrapping the public functions of each ``mofs`` module.

Every target function is replaced, in every ``mofs`` module namespace that
binds it, by a wrapper that counts calls and accumulates total and self time
(total minus the time spent in wrapped children).  ``FSquare.__init__`` is
wrapped on the class itself, so every square construction is seen.  Hot
leaves such as ``core.inner`` run millions of times per pass, so the tracer
keeps aggregates per function instead of one span per call.

Use it as a context manager around one pass; ``metrics()`` then gives the
per-layer metrics named in ``metrics.PER_LAYER``.
"""

from __future__ import annotations

import time

import mofs
import mofs.cli
import mofs.construct
import mofs.core
import mofs.fileformat
import mofs.maximality
import mofs.search
import mofs.verify

from metrics import ENGINES

MODULES = (
    mofs,
    mofs.cli,
    mofs.construct,
    mofs.core,
    mofs.fileformat,
    mofs.maximality,
    mofs.search,
    mofs.verify,
)


def _engine(params) -> str:
    return "m2" if params.m == 2 else "generic"


# Hooks: given the call's args, result and exception, return the amount to
# add to the function's item count.


def _pairs_checked(args, result, exc) -> int:
    """Square pairs ``verify_mofs`` compared before returning or raising."""
    t = len(tuple(args[0]))
    if exc is None:
        return t * (t - 1) // 2
    if isinstance(exc, mofs.NotOrthogonal):
        k, l = exc.k - 1, exc.l - 1  # the failing pair, in lexicographic order
        return k * t - k * (k + 1) // 2 + (l - k)
    return 0


def _text_length(args, result, exc) -> int:
    """Characters decoded or encoded; the format is ASCII, so bytes."""
    text = args[0] if isinstance(args[0], str) else result
    return 0 if text is None else len(text)


def _squares_added(args, result, exc) -> int:
    if result is None:
        return 0
    start = args[0]
    return result.t - (0 if isinstance(start, mofs.Params) else start.t)


def _certified(args, result, exc) -> int:
    return int(result is not None and result.certified)


class Stat:
    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0  # yields, pairs, bytes: whatever the hook counts


class Tracer:
    """Wraps the layers' public functions while active."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack = [0.0]  # per open call: time spent in wrapped children
        self._undo = []

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def _wrap_call(self, key, fn, hook=None):
        """Wrapper timing each call; ``key`` may be a function of the args."""
        stack = self._stack
        now = time.perf_counter
        fixed = None if callable(key) else self.stat(key)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = now()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = now() - t0
                child = stack.pop()
                stack[-1] += dt
                st = fixed or self.stat(key(*args))
                st.calls += 1
                st.total += dt
                st.self_time += dt - child
                if hook is not None:
                    st.items += hook(args, result, exc)
            return result

        return wrapper

    def _wrap_gen(self, key, fn):
        """Wrapper for a generator function: only time inside ``next`` counts."""
        stack = self._stack
        now = time.perf_counter

        def wrapper(*args, **kwargs):
            st = self.stat(key(*args))
            st.calls += 1
            gen = fn(*args, **kwargs)

            def traced():
                while True:
                    stack.append(0.0)
                    t0 = now()
                    done = False
                    try:
                        item = next(gen)
                    except StopIteration:
                        done = True
                    finally:
                        dt = now() - t0
                        child = stack.pop()
                        stack[-1] += dt
                        st.total += dt
                        st.self_time += dt - child
                    if done:
                        return
                    st.items += 1
                    yield item

            return traced()

        return wrapper

    def _patch(self, fn, wrapper):
        """Rebind ``fn`` to ``wrapper`` wherever a ``mofs`` module looks it up."""
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, name, fn))
                    setattr(module, name, wrapper)

    def __enter__(self):
        core, search = mofs.core, mofs.search
        calls = [
            (core.inner, "core.inner", None),
            (core.indicator, "core.indicator", None),
            (mofs.verify.verify_mofs, "verify.verify_mofs", _pairs_checked),
            (mofs.verify.completeness_structure, "verify.completeness", None),
            (mofs.fileformat.decode, "fileformat.decode", _text_length),
            (mofs.fileformat.encode, "fileformat.encode", _text_length),
            (mofs.construct.construct_prime_power, "construct.prime_power", None),
            (mofs.construct.construct_federer, "construct.federer", None),
            (mofs.construct.field_build, "construct.field_build", None),
            (mofs.construct.hadamard, "construct.hadamard", None),
            (mofs.maximality.maximality_verdict, "maximality.verdict", _certified),
            (mofs.maximality.parity_matrix, "maximality.parity_matrix", None),
            (
                search.grow_maximal,
                lambda start, *_: "search.grow."
                + _engine(getattr(start, "params", start)),
                _squares_added,
            ),
            (mofs.cli.main, "cli.main", None),
        ]
        for fn, key, hook in calls:
            self._patch(fn, self._wrap_call(key, fn, hook))
        gens = [
            (search.extensions, lambda mset, *_: "search.extensions." + _engine(mset.params)),
            (search.enumerate_fsquares, lambda p, *_: "search.enumerate." + _engine(p)),
        ]
        for fn, key in gens:
            self._patch(fn, self._wrap_gen(key, fn))
        init = core.FSquare.__init__
        self._undo.append((core.FSquare, "__init__", init))
        core.FSquare.__init__ = self._wrap_call("core.fsquare", init)
        return self

    def __exit__(self, *exc_info):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
        return False

    def metrics(self) -> dict:
        """The per-layer metrics of everything run while active, except
        ``trace_overhead_s``, which needs an untraced pass to compare."""
        empty = Stat()

        def get(key):
            return self.stats.get(key, empty)

        def ratio(num, den):
            return num / den if den else 0.0

        verify = get("verify.verify_mofs")
        decode = get("fileformat.decode")
        encode = get("fileformat.encode")
        verdict = get("maximality.verdict")
        out = {
            "core.inner_calls": get("core.inner").calls,
            "core.inner_s": get("core.inner").total,
            "core.indicator_calls": get("core.indicator").calls,
            "core.indicator_s": get("core.indicator").total,
            "core.fsquare_calls": get("core.fsquare").calls,
            "core.fsquare_s": get("core.fsquare").total,
            "verify.verify_mofs_self_s": verify.self_time,
            "verify.pairs_checked": verify.items,
            "verify.pairs_per_s": ratio(verify.items, verify.total),
            "verify.completeness_s": get("verify.completeness").total,
            "fileformat.decode_self_s": decode.self_time,
            "fileformat.bytes_read": decode.items,
            "fileformat.decode_MB_per_s": ratio(decode.items / 1e6, decode.self_time),
            "fileformat.encode_s": encode.total,
            "fileformat.bytes_written": encode.items,
            "construct.self_s": get("construct.prime_power").self_time
            + get("construct.federer").self_time,
            "construct.field_build_s": get("construct.field_build").total,
            "construct.hadamard_s": get("construct.hadamard").total,
            "maximality.verdict_s": verdict.total,
            "maximality.parity_matrix_calls": get("maximality.parity_matrix").calls,
            "maximality.certified_ratio": ratio(verdict.items, verdict.calls),
            "cli.self_s": get("cli.main").self_time,
            "cli.commands": get("cli.main").calls,
        }
        for engine in ENGINES:
            grow = get(f"search.grow.{engine}")
            ext = get(f"search.extensions.{engine}")
            enum = get(f"search.enumerate.{engine}")
            out[f"search.grow_s.{engine}"] = grow.total
            out[f"search.grow_calls.{engine}"] = grow.calls
            out[f"search.squares_added.{engine}"] = grow.items
            out[f"search.extensions_s.{engine}"] = ext.total
            out[f"search.extensions_yielded.{engine}"] = ext.items
            out[f"search.enumerate_s.{engine}"] = enum.total
            out[f"search.squares_yielded.{engine}"] = enum.items
        return out
