"""scorecast: probabilistic forecast scoring and evaluation studies.

Univariate CRPS estimators, the multivariate Energy Score and CRPS-Sum,
Monte Carlo sensitivity/convergence studies, dummy baseline forecasters and
a rolling evaluation harness for multivariate time series.
"""
__version__ = "0.1.0"

from .crps import (
    crps_empirical_cdf,
    crps_gaussian_analytic,
    crps_quantile,
    crps_sample_estimate,
    pinball_loss,
)
from .data import (
    EvaluationSplit,
    MultivariateSeries,
    ensemble_to_csv,
    load_exchange_rate,
    load_multivariate_csv,
    make_rolling_splits,
)
from .forecasters import (
    DummyConfig,
    evaluate_dummy_on_splits,
    make_dummy_forecast,
    sigma_sweep,
)
from .multivariate import (
    ScoreReport,
    crps_matrix,
    crps_sum,
    crps_sum_series,
    energy_score,
    energy_series,
    score_report,
)
from .simulation import (
    GaussianSpec,
    SensitivityConfig,
    SensitivityGridReport,
    bivariate_correlation_spec,
    relative_change,
    run_convergence_study,
    run_sensitivity_cell,
    run_sensitivity_grid,
)

__all__ = [
    "pinball_loss",
    "crps_empirical_cdf",
    "crps_quantile",
    "crps_sample_estimate",
    "crps_gaussian_analytic",
    "energy_score",
    "energy_series",
    "crps_sum",
    "crps_sum_series",
    "crps_matrix",
    "score_report",
    "ScoreReport",
    "GaussianSpec",
    "bivariate_correlation_spec",
    "relative_change",
    "SensitivityConfig",
    "SensitivityGridReport",
    "run_sensitivity_cell",
    "run_sensitivity_grid",
    "run_convergence_study",
    "DummyConfig",
    "make_dummy_forecast",
    "evaluate_dummy_on_splits",
    "sigma_sweep",
    "MultivariateSeries",
    "EvaluationSplit",
    "load_exchange_rate",
    "load_multivariate_csv",
    "ensemble_to_csv",
    "make_rolling_splits",
    "__version__",
]
