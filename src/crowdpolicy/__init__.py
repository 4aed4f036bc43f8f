"""Crowdsource a finite-horizon Markov policy from contributor kernels.

The library tracks a target Markov behavior while collecting reward: at every
step and state it scores each contributed transition kernel by KL divergence
to the target plus forgone reward-to-go, and switches to the best one. See
`synthesize` for the construction, `evaluate_cost` and the oracles for
independent checks, and the ``crowdpolicy`` command line for file-based runs.

The package exports the names in each module's own ``__all__``.
"""

from . import errors, evaluation, model, scenario, simulate, synthesis
from .errors import *
from .evaluation import *
from .model import *
from .scenario import *
from .simulate import *
from .synthesis import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (errors, model, synthesis, evaluation, scenario, simulate)
    for name in module.__all__
]
