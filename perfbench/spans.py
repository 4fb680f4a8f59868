"""Spans recorded around the library's public entry points.

The tracer wraps each function listed in ``TARGETS`` wherever a loaded
``sixjconv`` module binds it, so calls the benchmark makes, and calls one
public function makes into another, both open a span. A span is
``[name, start, end, parent, tag]``: ``parent`` indexes the enclosing span
(None at the top) and ``tag`` names the benchmark round it belongs to.
Spans stay in memory until the run writes them out.

The angular layer records only its outermost call: its functions call each
other thousands of times while tables are built, and one span per lookup
would cost more than the lookups.
"""

import sys
import time

TARGETS = (
    ("angular", "real_cg_table"),
    ("angular", "CoefficientCache.wigner3j"),
    ("angular", "CoefficientCache.wigner6j"),
    ("harmonics", "solid_sh"),
    ("irreps", "calibrate_pair_constants"),
    ("graph", "knn"),
    ("graph", "dense"),
    ("graph", "NeighborGraph.edge_arrays"),
    ("conv", "node_conv"),
    ("conv", "edge_conv"),
    ("conv", "attention_node_conv"),
    ("conv", "moments_conv"),
)
OUTERMOST_ONLY = ("angular",)
PACKAGE = "sixjconv"


class Tracer:
    def __init__(self):
        self.spans = []
        self.tag = None
        self._stack = []
        self._restore = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        layer = name.split(".", 1)[0]
        nested_skip = layer in OUTERMOST_ONLY
        tracer = self

        def traced(*args, **kwargs):
            if nested_skip and stack and spans[stack[-1]][0].startswith(layer + "."):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, tracer.tag])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded module of the package."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)


def duration(span) -> float:
    return span[2] - span[1]


def has_ancestor(spans, idx: int, names) -> bool:
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def self_time(spans, idx: int, children) -> float:
    """Duration of span ``idx`` minus the part its direct children cover."""
    return duration(spans[idx]) - sum(duration(spans[c]) for c in children.get(idx, ()))


def children_of(spans) -> dict:
    out = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            out.setdefault(s[3], []).append(i)
    return out
