"""Pinned fingerprints of every registered profile's generated program.

The generator's RNG draw order is part of its output: every program,
trace, cached result and golden snapshot depends on it.  These hashes
pin the whole generated artefact — block table, layout, binary image
and execution metadata — so a change to ``repro.cfg`` that reorders,
adds or drops a single draw fails here first, with the profile named.

Re-pin (only for a deliberate output change, which also needs an
``ENGINE_VERSION`` bump) by printing :func:`program_fingerprint` for
each case.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.cfg.generator import GeneratedProgram, generate_program
from repro.workloads.profiles import get_profile, registered_workloads


def program_fingerprint(generated: GeneratedProgram) -> str:
    """sha256 over everything a generated program exposes downstream."""
    digest = hashlib.sha256()

    def feed(*fields) -> None:
        digest.update(repr(fields).encode())
        digest.update(b"\n")

    program = generated.program
    for function in program.functions:
        feed("fn", function.fid, function.is_kernel, function.base_addr)
        for block in function.blocks:
            feed(block.ninstr, int(block.kind), block.taken_succ,
                 block.callees, int(block.behavior),
                 repr(block.behavior_param))
    # Insertion order included: the predecoder walks each line's list.
    for line, branches in program.image.items():
        feed("line", line, [(b.block_pc, b.ninstr, int(b.kind), b.target)
                            for b in branches])
    feed("roots", generated.roots)
    feed("kernel", generated.kernel_fids)
    feed("weights", generated.root_weights.tobytes().hex())
    return digest.hexdigest()


#: Every registered profile at its calibrated generator seed.
PINNED = {
    "nutch":
        "aa3387f0ba9ec02c930333b2d4c27214e93117daba7af5cbb5663849139ce0e4",
    "streaming":
        "a7088aaa7c79de4153728e6ae33bbc444dc5fdd26cbeb86b64d21d3414716f54",
    "apache":
        "b3025cdbc6956b4d9d67d51421b6a337ada1b5f5f40b560a4476f6572a578764",
    "zeus":
        "c2262b9723650f1f3166cdae6eb39d8b4fb5717e4071e8710805e8f84e814c4d",
    "oracle":
        "f704019a04994b55034d44a5e2f5df652d439df92afc0881621be8439efc2992",
    "db2":
        "c357fb801042839c98a0d57840f4df8d70ab7a2fb74210a6ddbbcbc6a7c5365d",
    "microservice":
        "bfad4c5be1824954648680af6b5d59fecea40dc1752eeeef4250f921d75cd2f3",
    "jit":
        "f49707b9441dac075777573f68fe82b357c82dcd60809ad7a784372775e6bd22",
    "gc":
        "d57eea17b52c832049f18625ce8e3bd1401be19ab92d6537bedb15eb810faeb8",
    "kernelio":
        "67ffefaa7e93defe1ba303eb22060a916de865010a3bcc7957af9358557ce7c7",
    "flatstream":
        "6d0d68322d832f556662ee3ad4e24673a3560218e931c2bd71302de86d874117",
}

#: Reseeded variants, pinning a non-default seed's draw order too.  The
#: seeds are the generator seeds the benchmark derives from run seed
#: 7919: ``1 + sha256("7919:<name>:gen")[:4] % (2**31 - 2)``.
RESEEDED = {
    ("nutch", 1053015851):
        "cc774e0d9b25708b23ecafc973cd0022607ff72b08e1df92cba24e39dce19497",
    ("gc", 971364834):
        "aa8c5a61cbeaebbc389ea22445441e8f4be977bdd6afe51351dbd91314f07e8d",
}


def test_every_registered_profile_is_pinned():
    assert set(registered_workloads()) == set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_profile_program_fingerprint(name):
    generated = generate_program(get_profile(name).gen_params)
    assert program_fingerprint(generated) == PINNED[name]


@pytest.mark.parametrize("name,seed", sorted(RESEEDED))
def test_reseeded_program_fingerprint(name, seed):
    params = replace(get_profile(name).gen_params, seed=seed)
    generated = generate_program(params)
    assert program_fingerprint(generated) == RESEEDED[(name, seed)]
