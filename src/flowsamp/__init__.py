"""Coordinated flow-sampling allocation under dynamic flow rates."""

from .model import (Allocation, FlowSpec, LoadStats, ModelError, Network,
                    SwitchSpec, build_network, load_network, load_stats,
                    save_network, validate_allocation)
from .optimizer import (Formulation, SolveResult, SolverConfig, additive_feasible,
                        brute_force_optimal, effective_load, feasible, flow_charge,
                        min_required_capacity, socp_feasible, solve, solve_apx,
                        solve_exact, squared_form_feasible)
from .simulator import (EpochConfig, EstimatorMode, MetricSummary, SamplingQuery,
                        SimReport, measure_metrics, run_simulation,
                        write_flow_epochs_csv, write_summary_json)
from .stats import estimate_flow_stats, normal_quantile, violation_probability
from .trafficgen import (Distribution, MixtureConfig, RateModel, RateProcess,
                         draw_flow_model, generate_model_driven, kbps_to_pps,
                         load_trace, sample_rates, save_trace)

__all__ = [name for name in dir() if not name.startswith("_")]
