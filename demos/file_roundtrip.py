"""Whole-file encode -> repair -> reconstruct through the command surface.

The same pipeline the acceptance suite times on 1 MiB, here on a small
payload with prints.  Every command is the library's CLI entry point, so
this is exactly what `rarc ...` does in a shell.
"""

import os
import tempfile

from rarc.cli import main

with tempfile.TemporaryDirectory() as workdir:
    payload = os.urandom(4096)
    src = os.path.join(workdir, "payload.bin")
    with open(src, "wb") as fh:
        fh.write(payload)

    encoded = os.path.join(workdir, "payload.rarc")
    repaired = os.path.join(workdir, "payload.repaired.rarc")
    restored = os.path.join(workdir, "payload.out")

    print("== parameters ==")
    assert main(["params", "--n", "50", "--u", "5", "--k", "44", "--d", "4"]) == 0

    print("\n== encode (array code over GF(256)) ==")
    assert (
        main(
            [
                "encode", "--code", "mbrr",
                "--n", "50", "--u", "5", "--k", "44", "--d", "4",
                "--field", "gf256", src, encoded,
            ]
        )
        == 0
    )
    print(f"encoded file: {os.path.getsize(encoded)} bytes for {len(payload)} payload bytes")

    print("\n== repair node (3, 2) from racks picked at random ==")
    assert (
        main(["repair", "--failed", "3,2", "--policy", "random", "--seed", "17", encoded, repaired])
        == 0
    )

    print("\n== reconstruct from nodes 0..43 ==")
    assert main(["reconstruct", "--nodes", "0-43", repaired, restored]) == 0

    with open(restored, "rb") as fh:
        assert fh.read() == payload
    print("\npayload restored byte-identically")

    print("\n== install check: small-code round trips and the published table ==")
    assert main(["selftest"]) == 0
