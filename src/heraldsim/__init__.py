"""Heralded polarization-entanglement source simulator."""

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a bundled .exp fixture (e.g. 'paper_5050.exp')."""
    from importlib import resources
    return resources.files(__name__) / "fixtures" / name


def schema_path(name: str = "summary.schema.json"):
    from importlib import resources
    return resources.files(__name__) / "schema" / name
