"""Generated ISA models.

:class:`ArchModel` is what the ADL pipeline produces: register layout,
decodable/encodable instruction definitions with their semantics already
lowered to IR, a generated decoder, assembler and disassembler.  Everything
downstream (simulator, symbolic executor, workload builder) works against
this class and is therefore ISA-independent.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from .. import adl
from ..adl import ast as A
from ..adl.errors import AdlSemanticError
from ..adl.translate import (RuleProvenance, rule_provenance,
                             translate_instruction)
from ..ir import nodes as N

__all__ = ["ArchModel", "Instruction", "RegFileInfo", "build"]


class RegFileInfo:
    """Register-file layout extracted from the spec."""

    def __init__(self, decl: A.RegFileDecl):
        self.name = decl.name
        self.count = decl.count
        self.width = decl.width
        self.prefix = decl.prefix
        self.zero_index = decl.zero_index

    def register_name(self, index: int) -> str:
        return "%s%d" % (self.prefix, index)


class Instruction:
    """One instruction definition with decode pattern and IR semantics."""

    def __init__(self, spec: A.ArchSpec, decl: A.InstrDecl):
        self.name = decl.name
        self.decl = decl
        self.encoding = spec.encodings[decl.encoding]
        self.pattern = decl.pattern
        self.length = self.pattern.length          # bytes
        self.syntax = decl.syntax
        self.operands: Dict[str, A.OperandDecl] = {
            op.name: op for op in decl.operands}
        self.semantics: Tuple[N.Stmt, ...] = tuple(
            translate_instruction(spec, decl))
        self.mnemonic = decl.syntax.split()[0]
        # Spec provenance: which ADL source lines produced this rule's IR
        # (recorded at translation time; consumed by repro.obs.speccov).
        self.provenance: RuleProvenance = rule_provenance(spec, decl)
        # Register-typed fields and their valid index bound: a decoded
        # word whose register field exceeds the regfile is not a valid
        # instruction (possible when the field is wider than log2(count),
        # e.g. vlx's 4-bit fields over 8 registers).
        from ..adl.analyze import syntax_placeholders
        self.reg_field_limits: Dict[str, int] = {
            name: spec.regfiles[kind].count
            for name, kind in syntax_placeholders(decl.syntax)
            if kind is not None}

    # -- field and operand extraction ---------------------------------------

    def extract_fields(self, word: int) -> Dict[str, int]:
        """All encoding-field values from a decoded instruction word."""
        fields = {}
        for field in self.encoding.fields:
            fields[field.name] = (word >> field.lsb) & ((1 << field.width) - 1)
        return fields

    def operand_value(self, operand: A.OperandDecl,
                      fields: Dict[str, int]) -> int:
        """Concatenate an operand's parts (MSB first) from field values."""
        value = 0
        for part in operand.parts:
            if part.field_name is None:
                value <<= part.zero_bits
            else:
                field = self.encoding.field(part.field_name)
                value = (value << field.width) | fields[part.field_name]
        return value

    def bind(self, word: int) -> Dict[str, int]:
        """Fields plus derived operands: the environment IR executes under."""
        fields = self.extract_fields(word)
        for operand in self.operands.values():
            fields[operand.name] = self.operand_value(operand, fields)
        return fields

    def encode_operand(self, operand: A.OperandDecl, value: int,
                       fields: Dict[str, int]) -> None:
        """Split an operand value back into its encoding fields.

        ``value`` is the already-relocated target value; range and zero-pad
        divisibility were checked by the assembler.
        """
        for part in reversed(operand.parts):
            if part.field_name is None:
                value >>= part.zero_bits
            else:
                field = self.encoding.field(part.field_name)
                fields[part.field_name] = value & ((1 << field.width) - 1)
                value >>= field.width

    def assemble_word(self, fields: Dict[str, int]) -> int:
        """Build the instruction word from complete field values."""
        word = self.pattern.match
        for field in self.encoding.fields:
            if field.name in self.decl.match:
                continue
            value = fields.get(field.name, 0)
            word |= (value & ((1 << field.width) - 1)) << field.lsb
        return word

    def __repr__(self):
        return "<Instruction %s (%d bytes)>" % (self.name, self.length)


class ArchModel:
    """A complete generated ISA model (the unit of retargeting)."""

    def __init__(self, spec: A.ArchSpec):
        self.spec = spec
        self.name = spec.name
        self.wordsize = spec.wordsize
        self.endian = spec.endian
        self.pc_width = spec.pc.width
        self.regfiles: Dict[str, RegFileInfo] = {
            name: RegFileInfo(decl) for name, decl in spec.regfiles.items()}
        self.registers: Dict[str, int] = {
            name: decl.width for name, decl in spec.registers.items()}
        self.instructions: List[Instruction] = [
            Instruction(spec, decl) for decl in spec.instructions]
        self.by_name: Dict[str, Instruction] = {
            instr.name: instr for instr in self.instructions}
        # Semantic-rule table: instruction name -> spec provenance.  This
        # is the join key for spec-coverage attribution (every ``step``
        # event's ``instr`` payload resolves here).
        self.rules: Dict[str, RuleProvenance] = {
            instr.name: instr.provenance for instr in self.instructions}
        # Filesystem path of the ADL source, when known (set by build()
        # for built-in specs); enables annotated spec-coverage reports.
        self.source_path: Optional[str] = None
        # ``sha256:<hex>`` of the spec bytes this model was built from
        # (set by build(); repro.runstore.provenance.spec_digest fills
        # it in once for a hand-built model).  Keys compiled code and
        # stored runs, so it must name these semantics even if the file
        # changes afterwards.
        self.source_digest: Optional[str] = None
        # Register-name lookup for the assembler: prefix+index and aliases.
        self.register_names: Dict[str, Tuple[str, int]] = {}
        for regfile in self.regfiles.values():
            for index in range(regfile.count):
                self.register_names[regfile.register_name(index)] = (
                    regfile.name, index)
        for alias in spec.aliases:
            self.register_names[alias.alias] = (alias.regfile, alias.index)
        from .decoder import Decoder  # local import to avoid a cycle
        self.decoder = Decoder(self)

    # -- byte/word conversion -------------------------------------------------

    def word_from_bytes(self, data: bytes) -> int:
        order = "little" if self.endian == "little" else "big"
        return int.from_bytes(data, order)

    def bytes_from_word(self, word: int, length: int) -> bytes:
        order = "little" if self.endian == "little" else "big"
        return word.to_bytes(length, order)

    @property
    def instruction_lengths(self) -> List[int]:
        return sorted({instr.length for instr in self.instructions})

    def mnemonic_candidates(self, mnemonic: str) -> List[Instruction]:
        return [instr for instr in self.instructions
                if instr.mnemonic == mnemonic]

    def __repr__(self):
        return "<ArchModel %s: %d instructions>" % (
            self.name, len(self.instructions))


_MODEL_CACHE: Dict[str, ArchModel] = {}


def build(name: str, fresh: bool = False) -> ArchModel:
    """Build (and cache) the ArchModel for a built-in spec name."""
    if not fresh and name in _MODEL_CACHE:
        return _MODEL_CACHE[name]
    path = adl.builtin_spec_path(name)
    with open(path, "rb") as handle:
        data = handle.read()
    model = ArchModel(adl.analyze(adl.parse_spec(data.decode("utf-8"))))
    model.source_path = path
    model.source_digest = "sha256:" + hashlib.sha256(data).hexdigest()
    if not fresh:
        _MODEL_CACHE[name] = model
    return model
