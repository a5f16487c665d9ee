"""Helpers that only the tests use: a reader for the legacy VTK files
that ``hybridfem.io_vtk`` writes, a zero function, the injection of a
conforming RT function into its broken twin, and which terms of a form
compile to point-dependent monomials."""

from __future__ import annotations

import numpy as np

from hybridfem.spaces import BrokenTransfer, Function, FunctionSpace


def zero_function(space: FunctionSpace) -> Function:
    return Function(space, np.zeros(space.ndof_global))


def point_dependent(form) -> list[bool]:
    """Whether each term of ``form`` compiles to monomials that vary over
    the quadrature points: its integral keeps them per term."""
    integrals, _ = form.compiled
    varying = {id(term) for it in integrals for term, *_ in it.points}
    return [id(term) in varying for term in form.terms]


def inject_broken(bt: BrokenTransfer, fn: Function) -> Function:
    """Copy a conforming function into the broken space (twins equal)."""
    if fn.space is not bt.conforming:
        raise ValueError("function does not live on the transfer's conforming space")
    return Function(bt.broken, fn.coeffs[bt.conforming_of_broken])


def read_vtk(path: str) -> dict:
    """Minimal legacy VTK reader for round-trip tests."""
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split("\n")
    out: dict = {"points": [], "cells": [], "point_data": {}, "cell_data": {}}
    i = 0
    n_points = n_cells = 0
    section = None
    current = None
    while i < len(tokens):
        line = tokens[i].strip()
        if line.startswith("POINTS"):
            n_points = int(line.split()[1])
            for j in range(n_points):
                out["points"].append([float(v) for v in tokens[i + 1 + j].split()])
            i += n_points
        elif line.startswith("CELLS"):
            n_cells = int(line.split()[1])
            for j in range(n_cells):
                out["cells"].append([int(v) for v in tokens[i + 1 + j].split()[1:]])
            i += n_cells
        elif line.startswith("POINT_DATA"):
            section = "point_data"
        elif line.startswith("CELL_DATA"):
            section = "cell_data"
        elif line.startswith("SCALARS"):
            name = line.split()[1]
            count = n_points if section == "point_data" else n_cells
            vals = [float(tokens[i + 2 + j]) for j in range(count)]
            out[section][name] = np.array(vals)
            i += count + 1
        elif line.startswith("VECTORS"):
            name = line.split()[1]
            count = n_points if section == "point_data" else n_cells
            vals = [[float(v) for v in tokens[i + 1 + j].split()] for j in range(count)]
            out[section][name] = np.array(vals)
            i += count
        i += 1
    out["points"] = np.array(out["points"])
    out["cells"] = np.array(out["cells"])
    return out
