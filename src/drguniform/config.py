"""Run configuration shared by the CLI and the heavier operations, and the
constants every document echoes next to it."""

from dataclasses import dataclass

# uniform.select_structure: the seed and the number of rounds of its
# rational samples, tried while some layer has a free parameter
SAMPLING_SEED = 1729
SAMPLING_ROUNDS = 8
DOOB_GRID_BOUND = 12  # tmodules.doob_symbolic_check: the largest grid size
ISO_VERTEX_BOUND = 2000  # terwilliger.graph_isomorphic: the largest graph searched


@dataclass(frozen=True)
class Config:
    """The run configuration: the vertex budget, which the CLI sets
    through ``--budget``.  Every document echoes it together with the
    constants above, under the keys the benchmark's reference digests
    pin."""

    vertex_budget: int = 100_000

    def validate(self):
        value = self.vertex_budget
        # a bool is not an int here
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"vertex_budget must be of type int, not {value!r}")
        if value <= 0:
            raise ValueError(f"vertex_budget must be positive, not {value!r}")
        return self

    def as_dict(self):
        return {
            "vertex_budget": self.vertex_budget,
            # nothing reads it: every spectral quantity is exact.  It goes
            # with the other four echo keys when the benchmark's reference
            # digests, which pin the echo, are re-recorded
            "numeric_tolerance": 1e-9,
            "decomposition_seed": SAMPLING_SEED,
            "retry_count": SAMPLING_ROUNDS,
            "doob_grid_bound": DOOB_GRID_BOUND,
            "iso_vertex_bound": ISO_VERTEX_BOUND,
        }


DEFAULT = Config()
