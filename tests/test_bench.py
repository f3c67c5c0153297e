import dataclasses

from dagsched.bench import run_instance
from dagsched.evaluator import CommMode
from dagsched.ga import GaConfig


def test_run_instance_leaves_config_unchanged():
    cfg = GaConfig(pop_size=6, max_iters=2, rng_seed=99)
    before = dataclasses.asdict(cfg)
    row = run_instance(10, 2, 3, 0.1, 4, CommMode.INCLUDE_TRANSFER, cfg)
    assert dataclasses.asdict(cfg) == before
    # the cell's seed, not the config's, seeds the GA
    again = run_instance(10, 2, 3, 0.1, 4, CommMode.INCLUDE_TRANSFER,
                         dataclasses.replace(cfg, rng_seed=4))
    assert row.ga_makespan == again.ga_makespan and row.best_series == again.best_series
