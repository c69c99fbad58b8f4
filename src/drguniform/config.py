"""Run configuration shared by the CLI and the heavier operations."""

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Config:
    """The run configuration.  ``numeric_tolerance`` is validated and echoed
    in every document, but nothing reads it: every spectral quantity is
    exact.  ``doob_grid_bound`` and ``iso_vertex_bound`` are read only
    from ``DEFAULT``, by ``doob_symbolic_check`` and ``graph_isomorphic``
    in the ``doob`` suite of ``verify-theorem``, which takes no
    ``--config``; a configured value is echoed and otherwise ignored."""

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
        # NaN and infinity would be echoed as bare NaN or Infinity, not JSON
        if self.vertex_budget <= 0 or not 0 < self.numeric_tolerance < float("inf"):
            raise ValueError("budget and tolerance must be positive, the tolerance finite")
        if self.retry_count <= 0 or self.iso_vertex_bound <= 0:
            raise ValueError("retry count and isomorphism bound must be positive")
        if self.doob_grid_bound < 0:
            raise ValueError("the Doob grid bound must not be negative")
        return self

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT = Config()
