"""Spans around the package's layer functions, recorded from outside the package.

:class:`Tracer` wraps the public functions of each layer (``cli``,
``fixedpoint``, ``linsolve``, ``_kernels``, ``coeffs``, ``grid``,
``verify``) while it is installed.  A name imported into several modules is
patched in every module that binds it, and methods are patched on their
class, so no call path escapes.  Spans (id, name, start, end, parent,
operation id, info) are kept in memory and written out when the run ends;
outside an operation the wrappers record nothing.
"""

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from turbsolve import _kernels, cli, coeffs, fixedpoint, grid, linsolve, verify


def _iterations(args, kwargs, out):
    return out[1].iterations


def _level(report_index):
    def info(args, kwargs, out):
        report = out[report_index]
        return [report.outer_iterations, report.converged]

    return info


def _file_bytes(args, kwargs, out):
    return Path(args[0]).stat().st_size


def _matvec_sizes(args, kwargs, out):
    v, cfx, cfy = args[:3]
    return [v.size, cfx.size, cfy.size]


# (span name, module, function, info recorded from the call's result)
FUNCTIONS = [
    ("cli.load_config", cli, "load_config", None),
    ("cli.write_field", cli, "write_field", _file_bytes),
    ("cli.read_field", cli, "read_field", _file_bytes),
    ("cli.reports", cli, "_write_csv", None),
    ("cli.reports", cli, "_write_json", None),
    ("fixedpoint.level", fixedpoint, "picard_solve", _level(2)),
    ("fixedpoint.level", fixedpoint, "chi_decoupled_solve", _level(3)),
    ("fixedpoint.u_update", fixedpoint, "solve_u_given_k", None),
    ("fixedpoint.k_update", fixedpoint, "solve_k_given_u", None),
    ("fixedpoint.k_update", fixedpoint, "kirchhoff_k_solve", None),
    ("fixedpoint.dissipation_source", fixedpoint, "dissipation_source", None),
    ("fixedpoint.final_report", fixedpoint, "_final_report", None),
    ("linsolve.solve", linsolve, "solve_spd", _iterations),
    ("linsolve.assemble", linsolve, "assemble", None),
    ("kernels.diffusion_matvec", _kernels, "diffusion_matvec", _matvec_sizes),
    ("kernels.face_gradients", _kernels, "face_gradients", None),
    ("kernels.dissipation_cells", _kernels, "dissipation_cells", None),
    ("coeffs.kirchhoff_A", coeffs, "kirchhoff_A", None),
    ("coeffs.kirchhoff_A_inv", coeffs, "kirchhoff_A_inv", None),
    ("grid.face_average", grid, "face_average", None),
    ("grid.weighted_energy", grid, "weighted_energy", None),
    ("verify.full_report", verify, "full_report", None),
    ("verify.idee_residual", verify, "idee_residual", None),
]

# (span name, class, method)
METHODS = [
    ("linsolve.matvec", linsolve.DiffusionOperator, "apply"),
    ("coeffs.nu", coeffs.ViscosityModel, "nu"),
    ("coeffs.a", coeffs.ViscosityModel, "a"),
]

SPAN_FIELDS = ["id", "name", "start", "end", "parent", "op", "info"]


def bindings():
    """Every (owner, attribute, value) the tracer may patch, for checking restores."""
    found = []
    originals = {id(getattr(module, attr)) for _, module, attr, _ in FUNCTIONS}
    for owner in _package_modules():
        for attr, value in list(vars(owner).items()):
            if id(value) in originals:
                found.append((owner, attr, value))
    found += [(cls, attr, vars(cls)[attr]) for _, cls, attr in METHODS]
    return found


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "turbsolve" or name.startswith("turbsolve."))]


class Tracer:
    def __init__(self):
        self.spans = []  # finished spans, as tuples in SPAN_FIELDS order
        self.op = None  # id of the operation being traced; None records nothing
        self._stack = []
        self._next_id = 0

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans.append((span_id, name, start, time.perf_counter(), parent, self.op,
                                   {"error": type(exc).__name__}))
                raise
            finally:
                self._stack.pop()
            end = time.perf_counter()
            self.spans.append((span_id, name, start, end, parent, self.op,
                               info(args, kwargs, out) if info else None))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore all on exit."""
        saved = []
        try:
            wrapped = {}
            for name, module, attr, info in FUNCTIONS:
                fn = getattr(module, attr)
                wrapped[id(fn)] = self._wrap(name, fn, info)
            for owner in _package_modules():
                for attr, value in list(vars(owner).items()):
                    if id(value) in wrapped:
                        saved.append((owner, attr, value))
                        setattr(owner, attr, wrapped[id(value)])
            for name, cls, attr in METHODS:
                fn = vars(cls)[attr]
                saved.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(name, fn, None))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    @contextlib.contextmanager
    def operation(self, op_id):
        self.op = op_id
        try:
            yield
        finally:
            self.op = None

    def write(self, path: Path):
        """Write the spans as JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, op_id) -> dict:
        """Per-layer metrics of one traced operation, from its spans."""
        spans = [s for s in self.spans if s[5] == op_id]
        calls = defaultdict(int)
        total = defaultdict(float)
        child_time = defaultdict(float)
        infos = defaultdict(list)
        for span_id, name, start, end, parent, _, info in spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                child_time[parent] += end - start
            infos[name].append(info)
        self_time = defaultdict(float)
        for span_id, name, start, end, *_ in spans:
            self_time[name] += (end - start) - child_time[span_id]

        solve_infos = infos["linsolve.solve"]
        iterations = sum(i for i in solve_infos if isinstance(i, int))
        matvec_sizes = [i for i in infos["kernels.diffusion_matvec"] if isinstance(i, list)]
        levels = infos["fixedpoint.level"]
        m = {
            "linsolve.solves": calls["linsolve.solve"],
            "linsolve.cg_iterations": iterations,
            "linsolve.cg_iterations_per_solve": iterations / calls["linsolve.solve"] if solve_infos else 0.0,
            "linsolve.matvecs": calls["linsolve.matvec"],
            "linsolve.residual_checks": calls["linsolve.matvec"] - iterations,
            "linsolve.solve.s": total["linsolve.solve"],
            "linsolve.solve.self_s": self_time["linsolve.solve"],
            "linsolve.errors": sum(1 for i in solve_infos if isinstance(i, dict)),
            # computed from array sizes: v read and the result written once,
            # each face coefficient read once; 3 flops per face, 5 per cell
            "kernels.diffusion_matvec.bytes_computed": sum(8 * (2 * v + fx + fy) for v, fx, fy in matvec_sizes),
            "kernels.diffusion_matvec.flops_computed": sum(3 * (fx + fy) + 5 * v for v, fx, fy in matvec_sizes),
            "kernels.diffusion_matvec.us_per_call": (
                1e6 * total["kernels.diffusion_matvec"] / calls["kernels.diffusion_matvec"]
                if calls["kernels.diffusion_matvec"] else 0.0),
            "fixedpoint.levels": len(levels),
            "fixedpoint.outer_iterations": sum(i[0] for i in levels if isinstance(i, list)),
            "fixedpoint.unconverged_levels": sum(1 for i in levels if not (isinstance(i, list) and i[1])),
            "fixedpoint.level.s": total["fixedpoint.level"],
            "fixedpoint.self_s": self_time["fixedpoint.level"],
            "cli.write_field.bytes": sum(i for i in infos["cli.write_field"] if isinstance(i, int)),
            "cli.read_field.bytes": sum(i for i in infos["cli.read_field"] if isinstance(i, int)),
            "cli.load_config.s": total["cli.load_config"],
            "cli.reports.s": total["cli.reports"],
            "verify.idee_residual.s": total["verify.idee_residual"],
            "fixedpoint.final_report.s": total["fixedpoint.final_report"],
        }
        for name in ("linsolve.assemble", "kernels.diffusion_matvec", "kernels.face_gradients",
                     "kernels.dissipation_cells", "fixedpoint.u_update", "fixedpoint.k_update",
                     "fixedpoint.dissipation_source", "coeffs.nu", "coeffs.a", "coeffs.kirchhoff_A",
                     "coeffs.kirchhoff_A_inv", "grid.face_average", "grid.weighted_energy",
                     "verify.full_report", "cli.write_field", "cli.read_field"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = total[name]
        return m
