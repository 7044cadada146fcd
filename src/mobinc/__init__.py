"""Exact Moebius-transformation incidence machinery over prime fields.

The package root re-exports nothing: each module is imported by name,
as in ``from mobinc.field import FieldContext`` or ``import mobinc.cli``.
"""
