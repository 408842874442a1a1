"""Quantum Fisher information for one-parameter channels and the qubit
ancilla-assisted enhancement factor, which is always between 1 and 3/2."""

from .catalog import depolarizing, gad, random_low_noise, rotation_unitary
from .channels import (
    ChannelFamily,
    KrausChannel,
    LowNoiseChannel,
    apply_channel,
    extend_family,
    extend_with_ancilla,
    family_from_low_noise,
    from_noise_operators,
    instantiate,
    validate_first_order,
    validate_trace_preserving,
)
from .errors import (
    ConvergenceError,
    DegenerateChannelError,
    DegenerateFamilyError,
    ParameterRangeError,
    QestError,
    SchemaError,
    SingularGeometryError,
    ValidationError,
)
from .estimation import (
    EstimationResult,
    SearchConfig,
    channel_qfi,
    maximize_qfi_pure,
    optimal_estimator,
    qfi,
    sld,
)
from .linalg import (
    bloch_to_density,
    dagger,
    fibonacci_sphere,
    hermitian_eig,
    partial_trace,
    pure_to_density,
    tensor_product,
)
from .lownoise import (
    EnhancementReport,
    NoiseGeometry,
    enhancement_factor,
    eta_bruteforce,
    leading_qfi_coefficient,
    noise_geometry,
    optimal_input_states,
    quadratic_form,
)
from .unitary import (
    UnitaryFamily,
    log_hamiltonian,
    unitary_channel_family,
    unitary_qfi_max,
)

__version__ = "0.1.0"
