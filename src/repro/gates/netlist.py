"""Gate-level netlists over the ≤3-input cell library.

A :class:`Netlist` is the output of technology mapping
(:mod:`repro.opt.techmap`) and the reproduction's stand-in for the
gate-level Verilog the paper obtains from Synopsys Design Compiler.  It
can be evaluated, exported to structural Verilog, and decomposed back
into a fresh AIG (the paper converts the Verilog description to an AIG
using abc before verification).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.aig import Aig
from repro.errors import NetlistError
from repro.gates.library import cell_name_for, cell_truth_table


@dataclass(frozen=True)
class Cell:
    """One gate instance: ``output`` net driven by ``cell`` over inputs."""

    name: str           # instance name
    cell: str           # library cell name
    output: int         # net id
    inputs: tuple       # net ids, port order matches the cell truth table

    @property
    def truth_table(self):
        return cell_truth_table(self.cell)[1]


class Netlist:
    """A combinational gate-level netlist.

    Nets are integer ids; 0 is constant false.  Cells must appear in
    topological order (enforced on evaluation).
    """

    def __init__(self, name=""):
        self.name = name
        self.input_nets = []
        self.input_names = []
        self.outputs = []          # (net, inverted) pairs
        self.output_names = []
        self.cells = []
        self._next_net = 1

    def new_net(self):
        net = self._next_net
        self._next_net += 1
        return net

    def add_input(self, name=None):
        net = self.new_net()
        self.input_nets.append(net)
        self.input_names.append(name or f"i{len(self.input_nets) - 1}")
        return net

    def add_cell(self, cell_name, inputs, instance=None):
        num_inputs, _tt = cell_truth_table(cell_name)
        if len(inputs) != num_inputs:
            raise NetlistError(
                f"cell {cell_name} wants {num_inputs} inputs, got {len(inputs)}")
        out = self.new_net()
        self.cells.append(Cell(instance or f"g{len(self.cells)}",
                               cell_name, out, tuple(inputs)))
        return out

    def add_lut(self, tt, inputs, instance=None):
        """Add a cell by truth table; resolves to a library or LUT cell."""
        return self.add_cell(cell_name_for(tt, len(inputs)), inputs, instance)

    def add_output(self, net, inverted=False, name=None):
        self.outputs.append((net, bool(inverted)))
        self.output_names.append(name or f"o{len(self.outputs) - 1}")

    @property
    def num_cells(self):
        return len(self.cells)

    def cell_histogram(self):
        histogram = {}
        for cell in self.cells:
            histogram[cell.cell] = histogram.get(cell.cell, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, input_values, width=1):
        """Bit-parallel evaluation; mirrors :func:`repro.aig.simulate`."""
        mask = (1 << width) - 1
        values = {0: 0}
        if len(input_values) != len(self.input_nets):
            raise NetlistError("wrong number of input values")
        for net, val in zip(self.input_nets, input_values):
            values[net] = val & mask
        for cell in self.cells:
            num_inputs, tt = cell_truth_table(cell.cell)
            operands = []
            for net in cell.inputs:
                if net not in values:
                    raise NetlistError(
                        f"cell {cell.name} reads undriven net {net}")
                operands.append(values[net])
            values[cell.output] = _eval_tt(tt, operands, width)
        results = []
        for net, inverted in self.outputs:
            if net not in values:
                raise NetlistError(f"output reads undriven net {net}")
            val = values[net]
            if inverted:
                val ^= mask
            results.append(val & mask)
        return results

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def to_aig(self):
        """Decompose every cell into AND/INV logic — a fresh AIG whose
        structure reflects cell boundaries, not the original circuit."""
        # repro.opt maps AIGs back to netlists, so it imports this module
        from repro.opt.decompose import synthesize_best

        aig = Aig(self.name)
        net2lit = {0: 0}
        plans = {}
        for net, name in zip(self.input_nets, self.input_names):
            net2lit[net] = aig.add_input(name)
        for cell in self.cells:
            _n, tt = cell_truth_table(cell.cell)
            leaves = [net2lit[net] for net in cell.inputs]
            net2lit[cell.output] = synthesize_best(aig, tt, leaves, plans)
        for (net, inverted), name in zip(self.outputs, self.output_names):
            literal = net2lit[net] ^ (1 if inverted else 0)
            aig.add_output(literal, name)
        return aig

    def to_verilog(self):
        """Structural Verilog (generic cell instances)."""
        module = "".join(ch if ch.isalnum() or ch == "_" else "_"
                         for ch in (self.name or "top"))
        if not module or module[0].isdigit():
            module = f"m_{module}"
        lines = [f"module {module} ("]
        ports = [f"  input {n}" for n in self.input_names]
        ports += [f"  output {n}" for n in self.output_names]
        lines.append(",\n".join(ports))
        lines.append(");")
        net_name = {0: "1'b0"}
        for net, name in zip(self.input_nets, self.input_names):
            net_name[net] = name
        for cell in self.cells:
            net_name.setdefault(cell.output, f"n{cell.output}")
            lines.append(f"  wire n{cell.output};")
        for cell in self.cells:
            operands = ", ".join(net_name[n] for n in cell.inputs)
            lines.append(
                f"  {cell.cell} {cell.name} (.o(n{cell.output}), .i({{{operands}}}));")
        for (net, inverted), name in zip(self.outputs, self.output_names):
            expr = net_name.get(net, f"n{net}")
            lines.append(f"  assign {name} = {'~' if inverted else ''}{expr};")
        lines.append("endmodule")
        return "\n".join(lines) + "\n"


def _eval_tt(tt, operands, width):
    mask = (1 << width) - 1
    result = 0
    for minterm in range(1 << len(operands)):
        if not (tt >> minterm) & 1:
            continue
        value = mask
        for pos, operand in enumerate(operands):
            if (minterm >> pos) & 1:
                value &= operand
            else:
                value &= operand ^ mask
        result |= value
    return result & mask
