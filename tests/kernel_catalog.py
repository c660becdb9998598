"""Reference kernels shared by the kernel, mollifier and acceptance tests."""

from viscokern.kernels import (
    ExpressionKernel,
    PronyKernel,
    RelaxationKernel,
    TabulatedKernel,
    WedgeKernel,
)


def catalog() -> dict[str, RelaxationKernel]:
    """Reference kernels, one per variant, all admissible on [0, 4]."""
    return {
        "wedge": WedgeKernel(2.0, 1.0, 1.0),
        "prony": PronyKernel(1.0, ((1.0, 0.5),)),
        "tabulated": TabulatedKernel(
            [0.0, 0.5, 1.0, 2.0, 4.0], [2.0, 1.5, 1.2, 1.05, 1.0]
        ),
        "expression": ExpressionKernel("1 + exp(-2*t)"),
    }
