"""gpclab: deterministic generalized product codes on the binary erasure channel.

Construction of (eta, gamma, tau) code families, density-evolution analysis,
residual-graph peeling simulation, a branching-process cross-check, and
LP-based design of irregular capability mixtures.

``import gpclab`` loads no submodule: each one loads when a name it exports,
or the submodule itself, is first read from the package (PEP 562).
"""

__version__ = "0.1.0"

# Every export, by the submodule that defines it; simplex exports none.
_EXPORTS = {
    "poisson": ("CapabilityDistribution", "initial_loss", "initial_loss_mixture"),
    "codespec": ("GpcSpec", "block_array_eta", "cn_degrees", "code_length",
                 "erasure_scaling", "mean_capability", "preset_braided",
                 "preset_from_block_array", "preset_hpc", "preset_pc", "preset_staircase",
                 "spec_from_json", "spec_to_json"),
    "de": ("DeTrajectory", "Schedule", "ThresholdResult", "de_run", "refined_upper_bound",
           "threshold", "upper_bound", "window_schedule"),
    "graphsim": ("PeelingResult", "ResidualGraph", "core_oracle", "monte_carlo", "peel",
                 "peel_scheduled", "sample_residual"),
    "branching": ("survival_mc",),
    "optimizer": ("LpSolution", "build_lp", "post_verify", "solve"),
    "simplex": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in the package
        __import__(f"{__name__}.{name}")  # -X importtime sees it, unlike import_module
        return globals()[name]
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{_OWNER[name]}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_OWNER})
