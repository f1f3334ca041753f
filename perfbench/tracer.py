"""Call tracer for the cellpower modules.

Each public function and method of a traced module is replaced, under every
name a caller looks it up by, with a wrapper that records its call count,
its inclusive time and its self time (inclusive time minus the time of the
traced calls made inside it). A module function is rebound in every traced
module whose namespace holds it, so `network_utility` is counted whether
env, agent, baselines or netmodel itself calls it.
"""

import functools
import inspect
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.stats = {}    # span name -> [calls, inclusive_s, self_s]
        self._stack = []   # open spans: [time spent in traced children]

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self, modules):
        """Wrap the public functions and methods defined in `modules`.

        MLP.forward is split into two spans by the rank of its input:
        `MLP.forward_single` for one state, `MLP.forward_batch` for a batch.
        """
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self.wrap(f"{layer}.{attr}", obj)
                    for caller in modules:
                        for name, value in list(vars(caller).items()):
                            if value is obj:
                                setattr(caller, name, traced)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)

    def _install_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            span = f"{layer}.{cls.__name__}.{attr}"
            if attr == "forward" and cls.__name__ == "MLP":
                setattr(cls, attr, self._split_forward(layer, member))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(span, member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(span, member.__func__)))

    def _split_forward(self, layer, forward):
        single = self.wrap(f"{layer}.MLP.forward_single", forward)
        batch = self.wrap(f"{layer}.MLP.forward_batch", forward)

        @functools.wraps(forward)
        def dispatch(self_, state):
            return (single if np.ndim(state) == 1 else batch)(self_, state)

        return dispatch

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def per_call_s(self, name):
        calls = self.calls(name)
        return self.inclusive_s(name) / calls if calls else float("nan")

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))
