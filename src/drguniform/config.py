"""Run configuration shared by the CLI and the heavier operations."""

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Config:
    """The run configuration.  The CLI sets ``vertex_budget`` alone,
    through ``--budget``; the other fields keep their defaults there and
    differ only for Python callers of ``certify_uniform``, whose
    ``select_structure`` reads ``decomposition_seed`` and
    ``retry_count``.  ``numeric_tolerance`` is validated and echoed in
    every document, but nothing reads it: every spectral quantity is
    exact.  ``doob_grid_bound`` and ``iso_vertex_bound`` are read only
    from ``DEFAULT``, by ``doob_symbolic_check`` and ``graph_isomorphic``
    in the ``doob`` suite of ``verify-theorem``.  Every field is echoed
    in every document."""

    vertex_budget: int = 100_000
    numeric_tolerance: float = 1e-9
    decomposition_seed: int = 1729
    retry_count: int = 8
    doob_grid_bound: int = 12
    iso_vertex_bound: int = 2000

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a float field takes an int too; a bool is neither
            if isinstance(value, bool) or not isinstance(value, (int, f.type)):
                raise ValueError(f"{f.name} must be of type {f.type.__name__}, not {value!r}")
        for name in ("vertex_budget", "retry_count", "iso_vertex_bound"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)!r}")
        # NaN and infinity would be echoed as bare NaN or Infinity, not JSON
        if not 0 < self.numeric_tolerance < float("inf"):
            raise ValueError(f"numeric_tolerance must be positive and finite, not {self.numeric_tolerance!r}")
        if self.doob_grid_bound < 0:
            raise ValueError(f"doob_grid_bound must not be negative, not {self.doob_grid_bound!r}")
        return self

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT = Config()
