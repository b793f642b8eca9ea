"""The catalog writer behind ``decompose``: JSON, CSV or markdown, written
row by row as it is produced.

Only a row's run-order cells depend on more than its stratum's shape, a flat
tuple of integers (``row_shape``).  So the rows come from one walk over the
runs of the partitions of n (:func:`~extquot.partitions.by_class`): the first
partition of each invariant class is the only one built as a Partition, with
its invariants and strata, and each new shape gets an integer id and is
rendered once as a text template with a gap for each run-order cell.  Every
partition fills the gaps from the rendered text of its runs, so memory grows
with the shapes, the distinct runs and the class keys, not with rows.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Hashable, TextIO

from .complex_quotient import ComplexComponent, row_shape, strata
from .partitions import Partition, by_class, invariants
from .real_quotient import RealComponent
from .topology import grid_line, grid_lines

FORMS = {"complex": ComplexComponent, "real": RealComponent}


def _omega_str(entry, k: int) -> str:
    exponent = entry.omega.zeta_exponent(k)
    return "1" if exponent == 0 else f"z^{exponent}"


def _variety_str(entry) -> str:
    pieces = []
    if entry.torus_dim > 0:
        pieces.append(f"C*^{entry.torus_dim}")
    s = entry.singularity
    if s.ambient_dim > 0:
        piece = f"A^{s.ambient_dim}"
        if s.group_order > 1:
            piece += f"/C_{s.group_order}({','.join(str(w) for w in s.weights)})"
        pieces.append(piece)
    return " x ".join(pieces) if pieces else "A^0"


def _flag(value: bool) -> str:
    return "yes" if value else "no"


# By the component field each shows: its markdown column header, and its
# label in ``component --format text``, which leaves out a field without one.
_LABELS = {
    "partition": ("mu", "mu"),
    "omega": ("omega", "omega"),
    "multiplicity": ("X", "|X|"),
    "variety": ("variety", "variety"),
    "torus_dim": ("base", "base"),
    "fiber_simplex_dims": ("fiber dims", "fiber"),
    "cyclic_order": ("C_d", "C_d"),
    "join_counts": ("joins", None),
    "action_orientation_preserving": ("fiber action preserves orientation", "orientation_preserving"),
    "bundle_orientable": ("bundle orientable", None),
}


def _json_cell(key: str, value, indent: str = "      ") -> str:
    """A field as it stands ``indent`` deep, three levels in the entries of
    ``json.dumps(catalog, indent=2)``: its key, then its own dump.  The field
    is a flag, an integer, a list or tuple of integers, or a dict of these,
    each laid out without ``json.dumps``."""
    head, inner = f'{indent}"{key}": ', indent + "  "
    if type(value) is bool:
        return head + ("true" if value else "false")
    if isinstance(value, (list, tuple)):
        return f"{head}[\n{inner}" + f",\n{inner}".join(map(str, value)) + f"\n{indent}]" if value else head + "[]"
    if isinstance(value, dict):
        return (f"{head}{{\n" + ",\n".join(_json_cell(*item, inner) for item in value.items()) + f"\n{indent}}}"
                if value else head + "{}")
    return head + str(value)


def _csv_fields(entry, k: int) -> list[tuple[str, object]]:
    """The items of ``entry.to_dict()``, the singularity's in its place."""
    fields = []
    for key, value in entry.to_dict().items():
        fields.extend(value.items() if key == "singularity" else [(key, value)])
    return fields


def _grid_cell(separator: str) -> Callable[[str, object], str]:
    """The cell of a field in a grid: a partition's parts joined by "+",
    another list's entries by ``separator``, and a flag as yes or no."""
    def cell(key: str, value) -> str:
        if isinstance(value, (list, tuple)):
            return ("+" if key == "partition" else separator).join(map(str, value))
        return _flag(value) if isinstance(value, bool) else str(value)
    return cell


def _markdown_fields(entry, k: int) -> list[tuple[str, object]]:
    """The markdown columns of ``entry``, headed as in _LABELS."""
    fields = [("partition", entry.partition.parts), ("omega", _omega_str(entry, k)),
              ("multiplicity", entry.multiplicity)]
    if entry.form == "complex":
        fields.append(("variety", _variety_str(entry)))
    else:
        fields += [
            ("torus_dim", f"T^{entry.torus_dim}"),
            ("fiber_simplex_dims", entry.fiber_simplex_dims),
            ("cyclic_order", entry.cyclic_order),
            ("join_counts", entry.join_counts),
            ("action_orientation_preserving", entry.action_orientation_preserving),
        ]
        if entry.bundle_orientable is not None:
            fields.append(("bundle_orientable", entry.bundle_orientable))
    return fields


_markdown_cell = _grid_cell(",")


def component_text(entry, k: int) -> str:
    """The line ``component --format text`` prints: each markdown field of
    ``entry`` that has a label, as label=cell."""
    return " ".join(f"{_LABELS[name][1]}={_markdown_cell(name, value)}"
                    for name, value in _markdown_fields(entry, k) if _LABELS[name][1])


# Per format: the named fields of an entry, and the cell of one field.
_FORMATS = {
    "json": (lambda entry, k: list(entry.to_dict().items()), _json_cell),
    "csv": (_csv_fields, _grid_cell(" ")),
    "markdown": (_markdown_fields, _markdown_cell),
}
# Stands for a gap in a row's text; no cell contains it.
_GAP = "\ue000"


class _Rendered(dict):
    """Texts by key, each rendered by ``render(key)`` when first asked for."""

    def __init__(self, render: Callable[[Hashable], object]) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, key: Hashable) -> object:
        text = self[key] = self.render(key)
        return text


def write(out: TextIO, form: str, n: int, k: int, fmt: str, partition: Partition | None = None) -> None:
    """Write the (n, k) catalog of ``form``, or only the rows of ``partition``,
    to ``out`` row by row, in omega order within each partition: JSON as
    ``json.dumps(..., indent=2)`` lays out n, k, form and the entries'
    ``to_dict``, CSV with a column per ``to_dict`` field and the
    singularity's fields in its place, or markdown headed as in _LABELS.

    A template has a %s gap for each run-order cell
    (``component_type.run_fields``).  The gap of a field ``run_items`` lists
    is joined from the fragments of the runs, each rendered once per fibre
    order d; the gap of a ``run_flags`` field is its cell, rendered once per
    value, by ``run_flags`` of the row's part-gcd g and k.  Rows are kept by
    the integer id of their shape (``row_shape``), and only a new shape is
    built as a component: one call keeps only text, fragments and integers.
    """
    component_type = FORMS[form]
    fields, cell = _FORMATS[fmt]
    separators = gaps = fragments = flags = flag_cells = None  # laid out by the first class
    ids_of, rows_of, shared = {}, [], {}  # id by shape, row by id, and rows by the ids of a class
    pending = None  # the flags of each row of the partition first() was called on, read from its fields

    def first(mu: Partition) -> tuple:
        """Per row of the class of mu: the template, the run fragments and the part-gcd g."""
        nonlocal separators, gaps, fragments, flags, flag_cells, pending
        layers = strata(invariants(mu), n, k)
        ids = tuple(ids_of.setdefault(row_shape(s), len(ids_of)) for s in layers)
        if ids in shared:
            return shared[ids]
        new = [s for i, s in zip(ids, layers) if i >= len(rows_of)]
        named = [fields(component_type.from_stratum(s, mu), k) for s in new]
        if flags is None:
            names = [name for name, _ in named[0]]
            if fmt != "json":
                out.writelines(grid_lines([[_LABELS[name][0] for name in names] if fmt == "markdown" else names], fmt))
            listed = [name for name in names if name in component_type.run_items(layers[0].d, *mu.runs[0])]
            flags = tuple(name for name in component_type.flag_names if name in names)
            # A listed field's cell is prefix + its entries joined by separator + suffix.
            layouts = {name: cell(name, (_GAP, _GAP)).split(_GAP) for name in listed}
            separators = [separator for _, separator, _ in layouts.values()]
            gaps = {name: f"{_escaped(prefix)}%s{_escaped(suffix)}" for name, (prefix, _, suffix) in layouts.items()}
            gaps.update((name, "%s") for name in flags)
            fragments = _Rendered(lambda d: _run_fragments(component_type, d, cell, layouts))
            flag_cells = [(cell(name, False), cell(name, True)) for name in flags]  # indexed by value
        if flags and len(new) == len(layers):  # else the walk reads them all from run_flags
            pending = [[value for name, value in row if name in flags] for row in named]
        rows_of.extend((_row_text([gaps[name] if name in gaps else _escaped(cell(name, value))
                                   for name, value in row], fmt), fragments[s.d], s.invariants.g)
                       for s, row in zip(new, named))
        shared[ids] = tuple(map(rows_of.__getitem__, ids))
        return shared[ids]

    if fmt == "json":
        out.write(f'{{\n  "n": {n},\n  "k": {k},\n  "form": "{form}",\n  "entries": [\n')
    joint, between = "", ",\n" if fmt == "json" else ""  # written before the first row, and before every later one
    flag_values = repeat(())  # per row
    for runs, rows in [(partition.runs, first(partition))] if partition else by_class(n, first):
        if flags:  # the walk calls first() on a class's first partition just before it yields that partition
            flag_values, pending = pending or [component_type.run_flags(g, k, runs) for _, _, g in rows], None
        for (template, texts, _), values in zip(rows, flag_values):
            # The gaps stand in row order, and every format puts flags after listed fields.
            out.write(joint + template % (*map(str.join, separators, zip(*[texts[run] for run in runs])),
                                          *map(tuple.__getitem__, flag_cells, values)))
            joint = between
    if fmt == "json":
        out.write("\n  ]\n}\n")


def _escaped(text: str) -> str:
    """``text`` as it stands in a %-template."""
    return text.replace("%", "%%")


def _run_fragments(component_type: type, d: int, cell: Callable[[str, object], str],
                   layouts: dict[str, list[str]]) -> _Rendered:
    """By run (part, mult): the text of its entries within the cell of each
    field ``layouts`` names, in a stratum of fibre order d, which is the cell
    without the prefix and suffix of the field's layout."""
    def render(run: tuple[int, int]) -> tuple[str, ...]:
        items = component_type.run_items(d, *run)
        texts = [(cell(name, items[name]), prefix, suffix) for name, (prefix, _, suffix) in layouts.items()]
        return tuple(text[len(prefix):len(text) - len(suffix)] for text, prefix, suffix in texts)
    return _Rendered(render)


def _row_text(texts: list[str], fmt: str) -> str:
    """The text of a row with cells ``texts``: a JSON entry, or a line of the
    CSV or markdown grid."""
    return "    {\n" + ",\n".join(texts) + "\n    }" if fmt == "json" else grid_line(texts, fmt)
