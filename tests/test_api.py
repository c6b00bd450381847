"""Guard against tolerance knobs: every tolerance is a constant at its point
of use, so no function or method of the library modules takes one as a
defaulted parameter."""

import inspect

from nisynth import certify, linalg, statespace, structure, synth

MODULES = (linalg, statespace, structure, certify, synth)


def _functions(module):
    """Every function and method defined in ``module``, private ones too."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)  # class/static
                if inspect.isfunction(fn):
                    yield f"{module.__name__}.{name}.{attr}", fn


def test_no_defaulted_tolerance_parameters():
    hits = [f"{where}({param.name})"
            for module in MODULES for where, fn in _functions(module)
            for param in inspect.signature(fn).parameters.values()
            if param.default is not param.empty
            and ("tol" in param.name or "floor" in param.name)]
    assert hits == [], f"{len(hits)} defaulted tolerance parameters: {hits}"
