"""Host-time spans around the public entry points of each layer.

The benchmark times calls into the program from outside it: for the
duration of a traced run, :class:`Tracer` replaces each layer's public
entry points (class methods and module functions of ``repro``) with
wrappers that read a clock on entry and exit, and puts every original
attribute back afterwards.  Nothing inside ``src/`` changes, and no
wrapper charges modeled cycles, so a traced run's modeled signature is
the untraced run's.

Spans are aggregated as they close instead of being stored one by one:
per ``(parent layer, layer)`` pair the tracer keeps a call count and the
inclusive time, and per layer its self time (span duration minus the
part covered by child spans).  Storing a record per call would cost
more than the calls themselves at the hottest boundary, the profiler's
``charge`` (~10^4 calls per simulated request).  Layers in
:data:`LEAF_LAYERS` call no other traced entry point, so their wrapper
skips the span stack entirely and only adds a count and a duration to
the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "<root>"

#: (module, class name or None, entry-point names or None).  ``None``
#: class: module-level functions.  ``None`` names: every public plain
#: function the class exposes (inherited ones included) or the module
#: defines.
Target = Tuple[str, Optional[str], Optional[Tuple[str, ...]]]

#: Layer name -> the public entry points whose calls are its spans.
LAYERS: Dict[str, Tuple[Target, ...]] = {
    "crypto.rsa": (
        ("repro.crypto.rsa", "RsaPrivateKey",
         ("decrypt", "sign", "raw_private")),
        ("repro.crypto.rsa", "RsaPublicKey",
         ("encrypt", "verify", "raw_public"))),
    "ssl.x509": (("repro.ssl.x509", "Certificate", ("to_bytes", "verify")),),
    "crypto.aes": (("repro.crypto.aes", "AES",
                    ("encrypt_block", "decrypt_block")),),
    "crypto.sha1": (("repro.crypto.sha1", "SHA1",
                     ("update", "digest", "copy")),),
    "crypto.modes": (("repro.crypto.modes", "CBC", ("encrypt", "decrypt")),),
    "crypto.mac": (("repro.crypto.mac", "Ssl3MacContext", ("mac",)),
                   ("repro.crypto.mac", "TlsMacContext", ("mac",))),
    "ssl.record": (("repro.ssl.record", "ConnectionState",
                    ("seal", "open")),),
    "crypto.des": (("repro.crypto.des", "DES",
                    ("encrypt_block", "decrypt_block")),
                   ("repro.crypto.des", "TripleDES",
                    ("encrypt_block", "decrypt_block"))),
    "crypto.md5": (("repro.crypto.md5", "MD5",
                    ("update", "digest", "copy")),),
    "crypto.rc4": (("repro.crypto.rc4", "RC4", ("process",)),),
    "crypto.rand": (("repro.crypto.rand", "PseudoRandom",
                     ("bytes", "int_below")),),
    "ssl.kdf": (("repro.ssl.kdf", None, None),),
    "perf.charge": (("repro.perf.profiler", "Profiler",
                     ("charge", "charge_cycles")),),
    "webserver.events": (("repro.webserver.events", "TxnScheduler",
                          ("add", "run_round", "next_event_round")),),
    "webserver.overload": (
        ("repro.webserver.overload", "AcceptQueue",
         ("begin_round", "head", "pop")),
        ("repro.webserver.overload", "AdmissionPolicy", ("admit", "prune")),
        ("repro.webserver.overload", "SuitePolicy", ("suites_for",))),
    "webserver.clientpool": (("repro.webserver.clientpool", "ClientPool",
                              ("offer", "store")),),
    "ssl.ticket": (("repro.ssl.ticket", "TicketKeyRing", ("mint", "open")),),
    "crypto.batch_rsa": (("repro.crypto.batch_rsa", "BatchRsaDecryptor",
                          ("decrypt_batch",)),),
    "ssl.session": (("repro.ssl.session", "SessionCache",
                     ("get", "put", "remove")),),
    "ssl.server": (("repro.ssl.server", "SslServer", None),),
    "ssl.client": (("repro.ssl.client", "SslClient", None),),
    "webserver.simulator": (("repro.webserver.simulator",
                             "WebServerSimulator", ("run",)),),
    "webserver.farm": (("repro.webserver.farm", "ServerFarm", ("run",)),
                       ("repro.webserver.farm", "LoadBalancerPolicy",
                        ("select",))),
    "webserver.httpd": (("repro.webserver.httpd", "ApacheWorker",
                         ("handle",)),),
}

#: Layers whose entry points call no other traced entry point.
LEAF_LAYERS = frozenset({"perf.charge"})


def _public_functions(owner) -> List[str]:
    """Public plain functions of a class (inherited included) or of a
    module (defined there, not imported)."""
    if inspect.isclass(owner):
        return sorted(name for name in dir(owner)
                      if not name.startswith("_")
                      and inspect.isfunction(
                          inspect.getattr_static(owner, name)))
    return sorted(name for name, obj in vars(owner).items()
                  if not name.startswith("_") and inspect.isfunction(obj)
                  and obj.__module__ == owner.__name__)


def _subclasses(cls) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in out:
            out.append(sub)
            todo.extend(sub.__subclasses__())
    return out


def entry_points(layers: Dict[str, Sequence[Target]] = LAYERS,
                 ) -> List[Tuple[str, object, str]]:
    """Every ``(layer, owner, name)`` a tracer patches.

    A class method is also patched on each subclass that overrides it
    (``RoundRobinPolicy.select``, ``DropTailPolicy.admit``, ...), except
    for leaf layers, whose wrapper cannot nest.  A module function is
    patched in its module, which is how the library calls them
    (``kdf.master_secret(...)``).
    """
    points: List[Tuple[str, object, str]] = []
    for layer, targets in layers.items():
        for module_name, class_name, names in targets:
            module = importlib.import_module(module_name)
            if class_name is None:
                points.extend((layer, module, name)
                              for name in names or _public_functions(module))
                continue
            cls = getattr(module, class_name)
            owners = [cls] + ([] if layer in LEAF_LAYERS
                              else _subclasses(cls))
            for name in names or _public_functions(cls):
                for owner in owners:
                    if owner is cls or name in vars(owner):
                        points.append((layer, owner, name))
    return points


class Tracer:
    """Aggregated host-time spans over the layers' public entry points.

    Use as a context manager around the traced call; counts and times
    accumulate across uses.  ``clock`` is injectable for tests.
    """

    def __init__(self, layers: Dict[str, Sequence[Target]] = LAYERS,
                 clock: Callable[[], float] = time.perf_counter):
        self.layers = layers
        self.names = [ROOT] + list(layers)
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        #: ``calls[parent][layer]`` / ``incl[parent][layer]``: spans of
        #: ``layer`` opened directly under ``parent``, and their total
        #: duration.
        self.calls = [[0] * n for _ in range(n)]
        self.incl = [[0.0] * n for _ in range(n)]
        #: Per layer: span durations minus the time their children cover.
        self.self_time = [0.0] * n
        self._clock = clock
        #: Open spans: ``[layer index, time covered by its children]``.
        self._stack: List[list] = [[0, 0.0]]
        self._saved: List[Tuple[object, str, bool, object]] = []

    # -- wrappers -------------------------------------------------------------
    def span(self, fn: Callable, layer: str) -> Callable:
        """Wrap ``fn`` so each call is a span of ``layer``."""
        idx = self.index[layer]
        stack, calls, incl = self._stack, self.calls, self.incl
        self_time, clock = self.self_time, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                calls[parent[0]][idx] += 1
                incl[parent[0]][idx] += elapsed
                self_time[idx] += elapsed - frame[1]
        return traced

    def leaf(self, fn: Callable, layer: str) -> Callable:
        """Wrap a leaf entry point: a count and a duration added to the
        enclosing span, with no span of its own on the stack."""
        idx = self.index[layer]
        stack, calls, incl = self._stack, self.calls, self.incl
        self_time, clock = self.self_time, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            parent = stack[-1]
            parent[1] += elapsed
            calls[parent[0]][idx] += 1
            incl[parent[0]][idx] += elapsed
            self_time[idx] += elapsed
            return result
        return traced

    # -- install / restore ----------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, owner, name in entry_points(self.layers):
            own = name in vars(owner)
            original = (vars(owner)[name] if own
                        else inspect.getattr_static(owner, name))
            wrap = self.leaf if layer in LEAF_LAYERS else self.span
            self._saved.append((owner, name, own, original))
            setattr(owner, name, wrap(original, layer))

    def restore(self) -> None:
        """Put back every patched attribute; one inherited by the owner
        is removed from it again."""
        while self._saved:
            owner, name, own, original = self._saved.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- readings -------------------------------------------------------------
    def layer_calls(self, layer: str) -> int:
        idx = self.index[layer]
        return sum(row[idx] for row in self.calls)

    def layer_self(self, layer: str) -> float:
        return self.self_time[self.index[layer]]

    def outer_time(self, layer: str) -> float:
        """Inclusive time of the layer's outermost spans (those not
        nested in a span of the same layer)."""
        idx = self.index[layer]
        return sum(row[idx] for p, row in enumerate(self.incl) if p != idx)

    def covered_time(self) -> float:
        """Time covered by spans opened outside any other span."""
        return sum(self.incl[0])

    def edges(self) -> List[Dict[str, object]]:
        """Every ``(parent, layer)`` pair seen, with calls and seconds."""
        return [{"parent": self.names[p], "layer": self.names[i],
                 "calls": self.calls[p][i], "seconds": self.incl[p][i]}
                for p in range(len(self.names))
                for i in range(len(self.names)) if self.calls[p][i]]
