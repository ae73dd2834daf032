"""Per-layer spans, recorded from outside the library.

``Tracer.install`` replaces the library functions named in ``LAYERS``, in
every ``oscillat`` module that binds them, by wrappers that record one span
per call: name, layer, parent span, start and end.  ``uninstall`` puts the
originals back.  A layer's self time is the time of its spans minus the
time of their child spans, so the self times of all layers add up to the
time of the outermost span.  The ``study`` layer is that outermost span, so
its self time is everything no other layer covers.
"""

import sys
import time

#: layer -> (module, function or Class.method) timed as that layer
LAYERS = {
    "study": [("oscillat.study", "convergence_sweep"),
              ("oscillat.study", "resolvent_sweep"),
              ("oscillat.study", "cosine_corrector_sweep")],
    "study.fit": [("oscillat.study", "fit_rate")],
    "cell.solve": [("oscillat.cell", "solve_cell")],
    "coefficients.eval_grid": [("oscillat.coefficients", "eval_scaled_grid")],
    "dirichlet.shift_search": [("oscillat.dirichlet", "choose_lambda")],
    "dirichlet.assemble": [("oscillat.dirichlet", "assemble_b_eps"),
                           ("oscillat.dirichlet", "assemble_b0")],
    "dirichlet.probe": [("oscillat.dirichlet", "smallest_eigenvalue")],
    "dirichlet.lu_factor": [("oscillat.dirichlet", "DiscreteDirichletOperator.factor")],
    "dirichlet.lu_solve": [("oscillat.dirichlet", "DiscreteDirichletOperator.solve_shifted"),
                           ("oscillat.dirichlet", "resolvent")],
    "dirichlet.corrector": [("oscillat.dirichlet", "Corrector.__init__"),
                            ("oscillat.dirichlet", "Corrector.apply"),
                            ("oscillat.dirichlet", "Corrector.apply_ext")],
    "evolution.decompose": [("oscillat.evolution", "spectral_decompose")],
    "evolution.apply": [("oscillat.evolution", "op_cosine"),
                        ("oscillat.evolution", "op_sine_scaled"),
                        ("oscillat.evolution", "op_inv_sqrt"),
                        ("oscillat.evolution", "solve_ibvp")],
    "evolution.flux": [("oscillat.evolution", "flux"),
                       ("oscillat.evolution", "flux_approx")],
    "dirichlet.norms": [("oscillat.dirichlet", "l2_norm"),
                        ("oscillat.dirichlet", "h1_norm")],
}


class Tracer:
    def __init__(self):
        self._patches = []      # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Forget recorded spans and counts (between sweeps)."""
        self.spans = []         # [name, layer, parent index, start, end]
        self._stack = []
        self.lu_factorizations = 0
        self.probe_unknowns_sum = 0
        self.decompose_unknowns_max = 0
        self.cg_residual_max = 0.0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, layer):
        def traced(*args, **kwargs):
            stack = self._stack
            rec = [name, layer, stack[-1] if stack else None,
                   time.perf_counter(), None]
            self.spans.append(rec)
            stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            self._note(name, args, out)
            return out

        return traced

    def _note(self, name, args, out):
        if name == "smallest_eigenvalue":
            self.probe_unknowns_sum += args[0].shape[0]
        elif name == "spectral_decompose":
            self.decompose_unknowns_max = max(self.decompose_unknowns_max,
                                              args[0].size)
        elif name == "solve_cell":
            res = [r for lst in out.residuals.values() for r in lst]
            self.cg_residual_max = max([self.cg_residual_max] + res)

    def _counting_splu(self, splu):
        def counted(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][1] == "dirichlet.lu_factor":
                self.lu_factorizations += 1
            return splu(*args, **kwargs)
        return counted

    # -- installing --------------------------------------------------------

    def install(self):
        import scipy.sparse.linalg
        import oscillat  # noqa: F401  (loads every module named in LAYERS)

        modules = [m for k, m in sys.modules.items()
                   if k == "oscillat" or k.startswith("oscillat.")]
        for layer, targets in LAYERS.items():
            for mod_name, qual in targets:
                owner = sys.modules[mod_name]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attr, self._wrap(getattr(cls, attr), qual, layer))
                    continue
                orig = getattr(owner, qual)
                wrapped = self._wrap(orig, qual, layer)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, wrapped)
        splu = scipy.sparse.linalg.splu
        self._patch(scipy.sparse.linalg, "splu", self._counting_splu(splu))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, sweep_s: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        self_s = {layer: 0.0 for layer in LAYERS}
        outer_s = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        calls = {}
        for rec in self.spans:
            name, layer, parent, start, end = rec
            dur = end - start
            self_s[layer] += dur
            if parent is not None:
                self_s[self.spans[parent][1]] -= dur
            if not self._inside(rec, layer):
                outer_s[layer] += dur
            layer_calls[layer] += 1
            calls[name] = calls.get(name, 0) + 1
        solves = calls.get("DiscreteDirichletOperator.solve_shifted", 0)
        return {
            "evolution.decompose_s": self_s["evolution.decompose"],
            "evolution.decompose_calls": layer_calls["evolution.decompose"],
            "evolution.decompose_unknowns_max": self.decompose_unknowns_max,
            "dirichlet.probe_s": self_s["dirichlet.probe"],
            "dirichlet.probe_calls": layer_calls["dirichlet.probe"],
            "dirichlet.probe_unknowns_sum": self.probe_unknowns_sum,
            "dirichlet.shift_search_s": outer_s["dirichlet.shift_search"],
            "dirichlet.lu_factor_s": self_s["dirichlet.lu_factor"],
            "dirichlet.lu_factorizations": self.lu_factorizations,
            "dirichlet.lu_solve_s": self_s["dirichlet.lu_solve"],
            "dirichlet.lu_reuse_ratio": (solves / self.lu_factorizations
                                         if self.lu_factorizations else 0.0),
            "dirichlet.corrector_s": self_s["dirichlet.corrector"],
            "dirichlet.corrector_applies": calls.get("Corrector.apply_ext", 0),
            "evolution.apply_s": self_s["evolution.apply"],
            "evolution.apply_calls": layer_calls["evolution.apply"],
            "evolution.flux_s": self_s["evolution.flux"],
            "dirichlet.assemble_s": self_s["dirichlet.assemble"],
            "dirichlet.norms_s": self_s["dirichlet.norms"],
            "coefficients.eval_grid_s": self_s["coefficients.eval_grid"],
            "coefficients.eval_grid_calls": layer_calls["coefficients.eval_grid"],
            "cell.solve_s": self_s["cell.solve"],
            "cell.cg_residual_max": self.cg_residual_max,
            "study.self_s": self_s["study"],
            "study.fit_s": self_s["study.fit"],
            # the share of the sweep the named layers explain: the study
            # layer's own time is what none of them covers
            "trace.coverage_frac": sum(v for k, v in self_s.items()
                                       if k != "study") / sweep_s,
        }

    def _inside(self, rec, layer) -> bool:
        """Whether a span has an ancestor span of the same layer."""
        parent = rec[2]
        while parent is not None:
            if self.spans[parent][1] == layer:
                return True
            parent = self.spans[parent][2]
        return False
