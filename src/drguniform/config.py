"""Run configuration shared by the CLI and the heavier operations."""

from dataclasses import dataclass, asdict


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
        if self.vertex_budget <= 0 or self.numeric_tolerance <= 0:
            raise ValueError("budget and tolerance must be positive")
        if self.retry_count <= 0 or self.iso_vertex_bound <= 0:
            raise ValueError("retry count and isomorphism bound must be positive")
        return self

    def as_dict(self):
        return asdict(self)


DEFAULT = Config()
