"""In-memory span tracer that wraps the public functions of `rcc` modules.

Every wrapped call records one span (name, start, end, parent, operation
index, and an optional amount such as a flop count or an effect count).
Spans live in flat arrays while the run lasts and are written out once at
the end. Nothing here is imported by the package under test; the wrappers
are installed from outside by patching module namespaces.

This module imports neither numpy nor rcc at import time, so a CLI child
can time `import rcc.cli` before the tracer touches anything.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import inspect
import os
import sys
import time
from array import array

# the layers are the rcc modules; `linalg` is the Hermitian eigensolvers of
# numpy and scipy plus scipy's incomplete beta family, which the
# Clopper-Pearson endpoints use (by bisection on `betainc`, or directly by
# an inverse)
MODULES = ("operators", "reference", "entropy", "bounds", "stats", "harness",
           "windows", "io", "cli")
EIG_FUNCS = ("eigh", "eigvalsh")
BETA_FUNCS = ("betainc", "betaincc", "betaincinv", "betainccinv")
LIBRARY = {"numpy.linalg": EIG_FUNCS, "scipy.linalg": EIG_FUNCS, "scipy.special": BETA_FUNCS}
REFERENCE_BUILDERS = ("reference.build_reference", "reference.sector_reference",
                      "reference.stabilizer_reference", "reference.block_reference")
CP_FUNCS = ("stats.clopper_pearson_upper", "stats.clopper_pearson_lower")


def eig_flops(func: str, n: int, is_complex: bool) -> float:
    """Textbook flop count of a dense Hermitian eigensolve of order n.

    Tridiagonal reduction plus QR gives about 4/3 n^3 real flops for the
    eigenvalues alone and about 9 n^3 with eigenvectors (Golub and Van Loan,
    Matrix Computations, section 8.3); complex arithmetic costs 4x.
    """
    per = 9.0 if func == "eigh" else 4.0 / 3.0
    return per * n**3 * (4.0 if is_complex else 1.0)


class Tracer:
    """Flat span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.amount = array("d")
        self.flag = array("b")
        self._stack: list[int] = []
        self.current_op = -1
        # state matrices of the current operation; eigensolves on any of
        # them are flagged as eigensolves of rho
        self.watched: list = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str, amount: float = 0.0, flag: int = 0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.amount.append(amount)
        self.flag.append(flag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def is_watched(self, a) -> bool:
        for r in self.watched:
            if a is r:
                return True
            if (getattr(a, "shape", None) == r.shape and a.dtype == r.dtype
                    and a.flat[0] == r.flat[0] and (a == r).all()):
                return True
        return False

    def watch(self, matrix) -> None:
        if not any(matrix is r for r in self.watched):
            self.watched.append(matrix)

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "amount": self.amount.tolist(),
            "flag": self.flag.tolist(),
        }

    def merge(self, other: dict, op: int) -> None:
        """Append spans recorded in another process as trees of operation op."""
        ids = []
        for name in other["names"]:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            ids.append(nid)
        base = len(self.start)
        self.name_id.extend(ids[i] for i in other["name_id"])
        self.start.extend(other["start"])
        self.end.extend(other["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in other["parent"])
        self.op.extend(op for _ in other["op"])
        self.amount.extend(other["amount"])
        self.flag.extend(other["flag"])

    def write(self, path) -> None:
        """Write all spans as one compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name_id=self.name_id, start=self.start,
            end=self.end, parent=self.parent, op=self.op, amount=self.amount, flag=self.flag,
        )


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return wrapper


def _wrap_validate(tracer: Tracer, name: str, fn):
    """validate_density: its argument and its result are the state."""

    @functools.wraps(fn)
    def wrapper(matrix, *args, **kwargs):
        if hasattr(matrix, "dtype"):
            tracer.watch(matrix)
        i = tracer.open(name)
        try:
            out = fn(matrix, *args, **kwargs)
        finally:
            tracer.close(i)
        tracer.watch(out.matrix)
        return out

    return wrapper


def _wrap_born(tracer: Tracer, name: str, fn):
    """born_sample: the amount is the number of POVM effects."""

    @functools.wraps(fn)
    def wrapper(rho, effects, *args, **kwargs):
        effects = list(effects)
        i = tracer.open(name, float(len(effects)))
        try:
            return fn(rho, effects, *args, **kwargs)
        finally:
            tracer.close(i)

    return wrapper


def _wrap_eig(tracer: Tracer, func: str, fn):
    """numpy eigensolver: the amount is its flop count, the flag marks rho."""
    name = f"linalg.{func}"

    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        shape = getattr(a, "shape", ())
        flops = 0.0
        if len(shape) == 2:
            flops = eig_flops(func, shape[-1], a.dtype.kind == "c")
        i = tracer.open(name, flops, 1 if tracer.is_watched(a) else 0)
        try:
            return fn(a, *args, **kwargs)
        finally:
            tracer.close(i)

    return wrapper


def _wrap_loader(tracer: Tracer, name: str, fn):
    """io.load_*: the amount is the size in bytes of the file it reads."""

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        try:
            size = float(os.path.getsize(path))
        except (OSError, TypeError):
            size = 0.0
        i = tracer.open(name, size)
        try:
            return fn(path, *args, **kwargs)
        finally:
            tracer.close(i)

    return wrapper


def _wrapper_for(tracer: Tracer, name: str, fn):
    if name == "operators.validate_density":
        return _wrap_validate(tracer, name, fn)
    if name == "harness.born_sample":
        return _wrap_born(tracer, name, fn)
    if name.startswith("io.load_"):
        return _wrap_loader(tracer, name, fn)
    return _wrap(tracer, name, fn)


class _LoaderProxy:
    """Loader that runs `hook(module)` right after the real loader."""

    def __init__(self, loader, hook):
        self._loader, self._hook = loader, hook

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        self._hook(module)


class _PatchOnImport:
    """Meta path finder that patches a library module once it is imported.

    Installing the tracer then imports no library module itself, so a CLI
    child still reports whether the program loaded `scipy.special`, and a
    function that imports `scipy.special` lazily gets the wrapped names.
    """

    def __init__(self, names, hook):
        self.names, self.hook = set(names), hook

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.names:
            return None
        self.names.discard(fullname)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader = _LoaderProxy(spec.loader, self.hook)
        return spec


def install(tracer: Tracer):
    """Wrap the public functions and methods of every rcc module, plus the
    Hermitian eigensolvers of `numpy.linalg` and `scipy.linalg` and the
    incomplete beta family of `scipy.special` (BETA_FUNCS).

    A module-level function is patched in every rcc module namespace that
    binds it, because `from .x import y` copies the name. A library
    function is patched on its own module too, so a name imported inside a
    function is wrapped as well; a library module that is not loaded yet is
    patched when it is first imported. Returns a function that restores the
    originals.
    """
    import numpy.linalg  # noqa: F401  (patched at once, not on import)

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    wrapped: dict[int, object] = {}

    def patch_library(mod):
        for func in LIBRARY[mod.__name__]:
            fn = getattr(mod, func, None)
            if fn is None:
                continue
            if func in EIG_FUNCS:
                new = _wrap_eig(tracer, func, fn)
            else:
                new = _wrap(tracer, f"linalg.{func}", fn)
            wrapped[id(fn)] = new
            patch(mod, func, new)

    finder = _PatchOnImport([n for n in LIBRARY if sys.modules.get(n) is None], patch_library)
    for name in LIBRARY:
        if sys.modules.get(name) is not None:
            patch_library(sys.modules[name])
    sys.meta_path.insert(0, finder)

    for short in MODULES:
        try:
            mod = importlib.import_module(f"rcc.{short}")
        except ImportError:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[id(obj)] = _wrapper_for(tracer, f"{short}.{attr}", obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, mobj in list(vars(obj).items()):
                    if not mattr.startswith("_") and inspect.isfunction(mobj):
                        patch(obj, mattr, _wrap(tracer, f"{short}.{mattr}", mobj))
        if short == "cli":
            for cname, cmd in mod.main.commands.items():
                patch(cmd, "callback", _wrap(tracer, f"cli.{cname}", cmd.callback))
    rcc_modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rcc" or n.startswith("rcc."))]
    for mod in rcc_modules:
        for attr, obj in list(vars(mod).items()):
            new = wrapped.get(id(obj))
            if new is not None:
                patch(mod, attr, new)

    def uninstall():
        if finder in sys.meta_path:
            sys.meta_path.remove(finder)
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def summarize(tr: Tracer, op_scales, child_info=()) -> tuple[dict, dict]:
    """Per-operation layer metrics from the spans of operations 0..n-1,
    where op_scales[i] scales the times of operation i to the nominal host
    speed (spans outside operations get the median factor).

    Self time is a span's duration minus the time its child spans cover.
    Returns the metrics and the number of calls recorded per layer.
    """
    import numpy as np

    n_ops = len(op_scales)
    op = np.frombuffer(tr.op, dtype=np.int32)
    in_op = op >= 0
    factor = np.full(op.size, float(np.median(op_scales)) if n_ops else 1.0)
    factor[in_op] = np.asarray(op_scales)[op[in_op]]
    nid = np.frombuffer(tr.name_id, dtype=np.int32)
    dur = (np.frombuffer(tr.end) - np.frombuffer(tr.start)) * factor
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    amount = np.frombuffer(tr.amount)
    flag = np.frombuffer(tr.flag, dtype=np.int8)
    has_parent = parent >= 0
    cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - cover
    names = tr.names
    index = {n: i for i, n in enumerate(names)}

    def mask(*wanted):
        ids = [index[n] for n in wanted if n in index]
        return np.isin(nid, ids) & in_op

    per_op = max(n_ops, 1)
    layer = np.array([n.split(".")[0] for n in names] + [""])
    span_layer = layer[nid] if nid.size else np.array([], dtype=layer.dtype)

    def calls(*wanted):
        return float(mask(*wanted).sum()) / per_op

    def ms(*wanted):
        return float(dur[mask(*wanted)].sum()) * 1e3 / per_op

    def self_ms(lay):
        return float(self_time[(span_layer == lay) & in_op].sum()) * 1e3 / per_op

    eig = mask(*(f"linalg.{f}" for f in EIG_FUNCS))
    cp = mask(*CP_FUNCS)
    beta = mask(*(f"linalg.{f}" for f in BETA_FUNCS))
    cp_ids = np.flatnonzero(cp)
    beta_in_cp = int(np.isin(parent[beta], cp_ids).sum()) if cp_ids.size else 0
    builders = np.isin(nid, [index[n] for n in REFERENCE_BUILDERS if n in index])
    outer = builders & ~(has_parent & builders[np.where(has_parent, parent, 0)])
    loads = np.array([n.startswith("io.load_") for n in names] + [False])[nid] & in_op
    born = mask("harness.born_sample")
    info = list(child_info)

    def child_mean(key, scaled=True):
        vals = [c[key] * (op_scales[i] if scaled else 1.0) for i, c in enumerate(info)]
        return float(np.mean(vals)) if vals else 0.0

    metrics = {
        "linalg.eig.calls": float(eig.sum()) / per_op,
        "linalg.eig.calls_on_rho": float(flag[eig].sum()) / per_op,
        "linalg.eig.ms": float(dur[eig].sum()) * 1e3 / per_op,
        "linalg.eig.flops_computed": float(amount[eig].sum()) / per_op,
        "operators.self_ms": self_ms("operators"),
        "operators.validate_density.ms": ms("operators.validate_density"),
        "reference.support_basis.calls": calls("reference.support_basis"),
        "reference.self_ms": self_ms("reference"),
        "reference.build_ms": float(dur[outer].mean()) * 1e3 if outer.any() else 0.0,
        "entropy.self_ms": self_ms("entropy"),
        "entropy.reference_overlap.calls": calls("entropy.reference_overlap"),
        "harness.self_ms": self_ms("harness"),
        "harness.born_sample.calls": float(born.sum()) / per_op,
        "harness.born_sample.effects": float(amount[born].sum()) / per_op,
        "harness.born_sample.ms": float(dur[born].sum()) * 1e3 / per_op,
        "harness.simulate_record.calls": calls("harness.simulate_record"),
        "stats.self_ms": self_ms("stats"),
        "stats.cp_endpoints": float(cp.sum()) / per_op,
        "linalg.betainc.calls": float(beta.sum()) / per_op,
        "stats.betainc_per_endpoint": beta_in_cp / float(cp.sum()) if cp.any() else 0.0,
        "bounds.self_ms": self_ms("bounds"),
        "bounds.solve_bootstrap.calls": calls("bounds.solve_bootstrap"),
        "io.load_state.ms": ms("io.load_state"),
        "io.bytes_read": float(amount[loads].sum()) / per_op,
        "io.dumps_json.ms": ms("io.dumps_json"),
        "cli.import_ms": child_mean("import_ms"),
        "cli.scipy_special_loaded": child_mean("scipy_special_loaded", scaled=False),
        "cli.run_ms": child_mean("run_ms"),
        "windows.self_ms": self_ms("windows"),
    }
    layer_calls = {lay: int(((span_layer == lay) & in_op).sum()) for lay in set(layer[:-1])}
    return metrics, layer_calls


def effect_counts(tr: Tracer) -> dict[int, int]:
    """How many born_sample calls passed each number of POVM effects."""
    if "harness.born_sample" not in tr.names:
        return {}
    born = tr.names.index("harness.born_sample")
    out: dict[int, int] = {}
    for i, a in zip(tr.name_id, tr.amount):
        if i == born:
            out[int(a)] = out.get(int(a), 0) + 1
    return out
