"""Outside-in tracer: wraps public functions of the library's modules.

Each wrapped function is replaced, in every `algebroids` module that holds a
reference to it (module globals imported by name, package re-exports, class
attributes), by a wrapper that records a span.  A span is
(name, start, end, parent index, job id).  Spans and counts stay in memory;
`Tracer.metrics()` turns them into the per-layer metrics when the run ends.
`poly` is not wrapped: its arithmetic is measured through its callers.

Self time of a span is its duration minus the durations of its direct
children.  Calls nest properly in one thread, so children never overlap.
"""

import functools
import sys
import time

# (module, attribute path, span name); the span name of groebner_basis is
# decided per call from the rank of its input.
TARGETS = [
    ("groebner", "groebner_basis", None),
    ("groebner", "Ideal.standard_monomials", "groebner.standard_monomials"),
    ("groebner", "GroebnerBasis.normal_form", "groebner.normal_form"),
    ("groebner", "syzygies", "groebner.syzygies"),
    ("linalg", "rref", "linalg.rref"),
    ("liealg", "minimal_module_generators", "liealg.min_generators"),
    ("liealg", "fibre_lie_algebra", "liealg.fibre"),
    ("liealg", "LieAlgebra.fingerprint", "liealg.fingerprint"),
    ("liealg", "LieAlgebra._validate_jacobi", "liealg.jacobi"),
    ("repmod", "sym_power_rep", "repmod.sym_power"),
    ("repmod", "MatrixRep._validate", "repmod.validate"),
    ("repmod", "decompose_sl2", "repmod.decompose"),
    ("repmod", "sl2_algebroid_filtration", "repmod.filtration"),
    ("derivations", "tangent_derivations", "derivations.tangent"),
    ("derivations", "jacobian_ideal", "derivations.jacobian"),
    ("derivations", "quasi_homogeneous_weights", "derivations.qh_weights"),
    ("series", "reconstruct_rational", "series.reconstruct"),
    ("series", "quasi_polynomial_of", "series.quasi_poly"),
    ("hilbert", "graded_pieces_series", "hilbert.graded_pieces"),
    ("hilbert", "hilbert_series_quotient", "hilbert.quotient"),
    ("hilbert", "equivariant_series_monomial", "hilbert.equivariant"),
    ("pipeline", "analyze_singularity", "pipeline.analyze"),
    ("pipeline", "analyze_toral", "pipeline.toral"),
    ("pipeline", "covariants_report", "pipeline.covariants"),
    ("cli", "main", "cli.main"),
]

# span names reported as "<name>_s" self time
SPAN_METRICS = [
    "groebner.module_basis", "groebner.ideal_basis",
    "groebner.standard_monomials", "groebner.normal_form", "groebner.syzygies",
    "linalg.rref",
    "liealg.min_generators", "liealg.fibre", "liealg.fingerprint",
    "liealg.jacobi",
    "repmod.sym_power", "repmod.validate", "repmod.decompose",
    "repmod.filtration",
    "derivations.tangent", "derivations.jacobian", "derivations.qh_weights",
    "series.reconstruct", "series.quasi_poly",
    "hilbert.graded_pieces", "hilbert.quotient", "hilbert.equivariant",
    "pipeline.analyze", "pipeline.toral", "pipeline.covariants",
    "cli.main",
]

COUNT_METRICS = [
    "groebner.basis_calls", "groebner.tracked_basis_calls",
    "groebner.basis_in_gens", "groebner.basis_out_elems",
    "groebner.normal_form_calls",
    "linalg.rref_calls", "linalg.rref_cells", "linalg.rref_max_cells",
    "repmod.sym_power_dim", "derivations.tangent_generators",
]

RATIO_METRICS = ["linalg.rref_rank_ratio", "liealg.min_generators_kept_ratio"]


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{name}_s", "s") for name in SPAN_METRICS]
    out += [(name, "count") for name in COUNT_METRICS]
    out += [(name, "ratio") for name in RATIO_METRICS]
    out += [("process.cpu_s", "s"), ("trace.overhead_s", "s")]
    return out


def _basis_rank(gens):
    for g in gens:
        if not g.is_zero():
            return getattr(g, "rank", 1)
    return 1


class Tracer:
    """Span and count recorder; `install` patches the library in place."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, job]
        self.stack = []
        self.counts = {}
        self.job = None
        self.active = False   # off while oracles run, so they leave no spans

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _observe(self, name, args, kwargs, result):
        """Counts taken at the boundary, from the arguments and the result."""
        if name.startswith("groebner.") and name.endswith("_basis"):
            self.count("groebner.basis_calls")
            track = kwargs.get("track", args[2] if len(args) > 2 else False)
            if track:
                self.count("groebner.tracked_basis_calls")
            self.count("groebner.basis_in_gens", len(args[0]))
            self.count("groebner.basis_out_elems", len(result.elements))
            parent = self.stack[-1] if self.stack else None
            if parent is not None and self.spans[parent][0] == "liealg.min_generators":
                self.count("liealg.min_generators_bases")
        elif name == "groebner.normal_form":
            self.count("groebner.normal_form_calls")
        elif name == "linalg.rref":
            rows = args[0]
            cells = len(rows) * (len(rows[0]) if rows else 0)
            self.count("linalg.rref_calls")
            self.count("linalg.rref_cells", cells)
            self.count("linalg.rref_rows", len(rows))
            self.count("linalg.rref_rank", len(result[0]))
            if cells > self.counts.get("linalg.rref_max_cells", 0):
                self.counts["linalg.rref_max_cells"] = cells
        elif name == "liealg.min_generators":
            self.count("liealg.min_generators_kept", len(result))
        elif name == "repmod.sym_power":
            self.count("repmod.sym_power_dim", result.dim)
        elif name == "derivations.tangent":
            self.count("derivations.tangent_generators", len(result.generators))

    def _wrap(self, func, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span_name = name
            if span_name is None:
                span_name = ("groebner.module_basis" if _basis_rank(args[0]) > 1
                             else "groebner.ideal_basis")
            spans = tracer.spans
            index = len(spans)
            parent = tracer.stack[-1] if tracer.stack else None
            spans.append([span_name, time.perf_counter(), None, parent, tracer.job])
            tracer.stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                tracer.stack.pop()
            tracer._observe(span_name, args, kwargs, result)
            return result

        return functools.wraps(func)(wrapper)

    def install(self):
        """Patch every reference to each target inside the `algebroids` package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "algebroids" or n.startswith("algebroids."))]
        for mod_name, path, span in TARGETS:
            owner = sys.modules[f"algebroids.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span)
            setattr(owner, attr, wrapper)
            if cls_path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def self_times(self, job=None):
        """Span name -> total self time over all spans of that name, or over
        the spans of one job."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for i, (name, start, end, _parent, span_job) in enumerate(self.spans):
            if job is None or span_job == job:
                totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def metrics(self):
        """Per-layer metrics except process.cpu_s and trace.overhead_s."""
        selfs = self.self_times()
        out = {f"{name}_s": selfs.get(name, 0.0) for name in SPAN_METRICS}
        for name in COUNT_METRICS:
            out[name] = self.counts.get(name, 0)
        out["linalg.rref_rank_ratio"] = _ratio(self.counts.get("linalg.rref_rank", 0),
                                               self.counts.get("linalg.rref_rows", 0))
        out["liealg.min_generators_kept_ratio"] = _ratio(
            self.counts.get("liealg.min_generators_kept", 0),
            self.counts.get("liealg.min_generators_bases", 0))
        return out


def _ratio(num, den):
    return num / den if den else 0.0
