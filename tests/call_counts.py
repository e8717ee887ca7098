"""Counting calls to library functions from a test."""

import sys


def count_calls(monkeypatch, functions):
    """Count calls to each function through every sgdtors module that binds it."""
    calls = {}
    for original in functions:
        name = original.__name__

        def counted(*args, name=name, original=original):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("sgdtors") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls
