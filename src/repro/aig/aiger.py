"""Reading and writing combinational AIGs in the AIGER ASCII format (.aag).

Only the combinational subset is supported (no latches), which is what
multiplier verification needs.  Symbol-table entries for inputs/outputs
and the comment section are preserved where present.
"""

from __future__ import annotations

from repro.aig.aig import Aig, lit_var
from repro.errors import AigFormatError


def write_aag(aig, path=None):
    """Serialize to AIGER ASCII; returns the text, optionally writing it."""
    lines = []
    max_var = aig.num_vars - 1
    lines.append(f"aag {max_var} {aig.num_inputs} 0 {aig.num_outputs} {aig.num_ands}")
    for var in aig.inputs:
        lines.append(str(2 * var))
    for out in aig.outputs:
        lines.append(str(out))
    for v in aig.and_vars():
        f0, f1 = aig.fanins(v)
        lines.append(f"{2 * v} {max(f0, f1)} {min(f0, f1)}")
    for idx, name in enumerate(aig.input_names):
        lines.append(f"i{idx} {name}")
    for idx, name in enumerate(aig.output_names):
        lines.append(f"o{idx} {name}")
    if aig.name:
        lines.append("c")
        lines.append(aig.name)
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
    return text


def read_aag(source):
    """Parse AIGER ASCII text (or read from a path-like if it exists).

    Malformed input raises :class:`repro.errors.AigFormatError` with the
    diagnostic code and the offending 1-based line number in the context:
    RA001 for header/syntax problems, RA002 for truncated files, RA003
    for literals that are out of range or undefined, RA004 for invalid
    definitions (complemented or duplicate left-hand sides), and RA005
    for a path that cannot be read as ASCII text (missing, unreadable,
    or a binary ``.aig``).
    """
    text = source
    if "\n" not in source:
        try:
            with open(source, "r", encoding="ascii") as handle:
                text = handle.read()
        except UnicodeDecodeError:
            raise AigFormatError(
                f"{source}: not ASCII text (binary AIGER is not supported)",
                code="RA005", path=str(source)) from None
        except OSError as exc:
            raise AigFormatError(
                f"{source}: {exc.strerror or exc}", code="RA005",
                path=str(source)) from None
    lines = [line.strip() for line in text.splitlines()]
    if not lines or not lines[0].startswith("aag "):
        raise AigFormatError("not an AIGER ASCII file (missing 'aag' magic)",
                             code="RA001", line=1)
    header = lines[0].split()
    if len(header) != 6:
        raise AigFormatError(
            f"malformed header (expected 'aag M I L O A'): {lines[0]!r}",
            code="RA001", line=1)
    try:
        max_var, num_in, num_latch, num_out, num_and = (
            int(field) for field in header[1:])
    except ValueError:
        raise AigFormatError(
            f"non-integer header field in {lines[0]!r}",
            code="RA001", line=1) from None
    if min(max_var, num_in, num_latch, num_out, num_and) < 0:
        raise AigFormatError(
            f"negative header field in {lines[0]!r}", code="RA001", line=1)
    if num_latch:
        raise AigFormatError(
            "latches are not supported (combinational AIGs only)",
            code="RA001", line=1)
    if num_in + num_and > max_var:
        raise AigFormatError(
            f"header claims {num_in} inputs + {num_and} ANDs but only "
            f"{max_var} variables", code="RA001", line=1)

    body = lines[1:]
    needed = num_in + num_out + num_and
    if len(body) < needed:
        raise AigFormatError(
            f"truncated file: header promises {needed} definition line(s), "
            f"found {len(body)}", code="RA002", line=len(lines))
    max_lit = 2 * max_var + 1

    def body_int(index, token):
        try:
            value = int(token)
        except ValueError:
            raise AigFormatError(
                f"non-integer literal {token!r}", code="RA001",
                line=index + 2) from None
        if not 0 <= value <= max_lit:
            raise AigFormatError(
                f"literal {value} out of range (max variable {max_var})",
                code="RA003", line=index + 2)
        return value

    input_lits = [body_int(i, body[i]) for i in range(num_in)]
    output_lits = [body_int(num_in + i, body[num_in + i])
                   for i in range(num_out)]
    and_rows = []
    for i in range(num_and):
        index = num_in + num_out + i
        parts = body[index].split()
        if len(parts) != 3:
            raise AigFormatError(
                f"malformed AND row (expected 'lhs rhs0 rhs1'): "
                f"{body[index]!r}", code="RA001", line=index + 2)
        and_rows.append((tuple(body_int(index, p) for p in parts),
                         index + 2))

    aig = Aig()
    # AIGER permits arbitrary variable numbering; build a remap table from
    # old variable to new literal (add_and may simplify structurally).
    old2new = {0: 0}
    for idx, in_lit in enumerate(input_lits):
        if in_lit & 1:
            raise AigFormatError(
                f"complemented input definition {in_lit}",
                code="RA004", line=idx + 2)
        if in_lit == 0 or lit_var(in_lit) in old2new:
            raise AigFormatError(
                f"input literal {in_lit} redefines a variable",
                code="RA004", line=idx + 2)
        old2new[lit_var(in_lit)] = aig.add_input()

    # AND rows may come in any topological-consistent order; sort by lhs.
    and_rows.sort(key=lambda row: row[0][0])
    for (lhs, rhs0, rhs1), line_no in and_rows:
        if lhs & 1:
            raise AigFormatError(
                f"complemented AND definition {lhs}",
                code="RA004", line=line_no)
        if lhs == 0 or lit_var(lhs) in old2new:
            raise AigFormatError(
                f"AND literal {lhs} redefines a variable",
                code="RA004", line=line_no)
        new0 = _remap(old2new, rhs0, line_no)
        new1 = _remap(old2new, rhs1, line_no)
        old2new[lit_var(lhs)] = aig.add_and(new0, new1)

    for idx, out in enumerate(output_lits):
        aig.add_output(_remap(old2new, out, num_in + idx + 2))

    # Symbol table.
    sym_start = num_in + num_out + num_and
    for line in body[sym_start:]:
        if not line or line == "c":
            break
        kind, _, name = line.partition(" ")
        if kind.startswith("i") and kind[1:].isdigit():
            aig._input_names[int(kind[1:])] = name
        elif kind.startswith("o") and kind[1:].isdigit():
            aig._output_names[int(kind[1:])] = name
    return aig


def _remap(old2new, literal, line_no):
    var = literal >> 1
    if var not in old2new:
        raise AigFormatError(
            f"literal {literal} references undefined variable v{var}",
            code="RA003", line=line_no)
    return old2new[var] ^ (literal & 1)
