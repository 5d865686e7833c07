"""Compilation-cache invalidation keys on the codegen version.

A generator change must not serve stale tables out of the in-process
cache: the key is ``(isa, spec digest, CODEGEN_VERSION)``, so bumping
the constant — the bump-on-change discipline for
:mod:`repro.compile.symbolic` / :mod:`repro.compile.ops` edits —
transparently recompiles everything.
"""

import repro.compile as compile_mod
from repro.isa import build


def test_same_spec_same_generator_hits_cache():
    compile_mod.clear_cache()
    try:
        first = compile_mod.compiled_for(build("rv32"))
        second = compile_mod.compiled_for(build("rv32", fresh=True))
        assert second is first
        assert compile_mod.cache_info()["entries"] == 1
    finally:
        compile_mod.clear_cache()


def test_codegen_version_bump_invalidates(monkeypatch):
    compile_mod.clear_cache()
    try:
        model = build("rv32")
        before = compile_mod.compiled_for(model)
        monkeypatch.setattr(compile_mod, "CODEGEN_VERSION",
                            compile_mod.CODEGEN_VERSION + 1)
        after = compile_mod.compiled_for(model)
        assert after is not before
        assert compile_mod.cache_info()["entries"] == 2
    finally:
        compile_mod.clear_cache()


def test_compiled_entry_records_generator_version():
    compile_mod.clear_cache()
    try:
        compiled = compile_mod.compiled_for(build("vlx"))
        assert compiled.codegen_version == compile_mod.CODEGEN_VERSION
    finally:
        compile_mod.clear_cache()


def test_every_rule_carries_its_generated_source():
    compile_mod.clear_cache()
    try:
        model = build("mips32")
        compiled = compile_mod.compiled_for(model)
        for instr in model.instructions:
            source = compiled.plan.source(instr)
            assert source.startswith("def _s_%s_" % instr.name) \
                or source.startswith("_plan_%s = " % instr.name)
            assert "_plan_%s = " % instr.name in source
    finally:
        compile_mod.clear_cache()
