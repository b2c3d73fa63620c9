"""Contact-force estimation and PI force control for a simulated pneumatic soft hand.

The package splits into:

- ``calibration``: OLS polynomial fits of the bending-induced internal force
  with BIC degree selection;
- ``estimation``: contact force by internal-force subtraction, plus
  threshold contact detection;
- ``control``: the discrete incremental PI controller and the
  approach/force-control supervisor;
- ``plant``: the deterministic simulated finger, sensors, and objects;
- ``harness``: scripted characterization, accuracy, control, grasping,
  and hardness experiments;
- ``cli``: the ``softgrip`` command.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationReport,
    PolynomialModel,
    Sample,
    fit_polynomial,
    select_model,
)
from .control import PiController, Supervisor
from .estimation import ContactDetector, ContactEstimate, contact_force, internal_force
from .plant import FingerPlant, ObjectModel, shake_test

__all__ = [
    "CalibrationReport",
    "ContactDetector",
    "ContactEstimate",
    "FingerPlant",
    "ObjectModel",
    "PiController",
    "PolynomialModel",
    "Sample",
    "Supervisor",
    "contact_force",
    "fit_polynomial",
    "internal_force",
    "select_model",
    "shake_test",
    "__version__",
]
