"""Exact Floer groups of separating-twist mapping tori, two independent ways.

The oracle pipeline (`knot_model`) enumerates the region of a model knot
complex and runs its page differentials with exact integer linear algebra;
the closed form (`closed_form`) evaluates the answer directly.  `cli.verify`
sweeps both over a parameter grid and reports any disagreement.  The API
is the modules (`from mtfloer import cli, knot_model`); the package itself
holds only the version.
"""

__version__ = "0.1.0"
