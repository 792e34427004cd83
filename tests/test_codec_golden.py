"""Golden batches: frozen SHA-256 digests of batch JSON for fixed payloads.

A codec refactor must leave every batch byte-identical.  Each digest pins
one scheme setup on one payload; each frozen batch must also decode back to
its payload through the JSON form.
"""

import hashlib
import random

import pytest

from oligocycle import EncodedBatch, decode_payload, encode_payload
from oligocycle.bits import bits_from_bytes

SETUPS = {
    "base-q4-b32": ("base", dict(q=4, block_symbols=32)),
    "base-q5-b7": ("base", dict(q=5, block_symbols=7)),
    "lookup-q4-d2": ("lookup", dict(q=4, rho=0.5, depth=2)),
    "lookup-q4-d16": ("lookup", dict(q=4, rho=0.5, depth=16)),
    "multisize-q5-45": ("multisize", dict(q=5, rho=0.45, oligo_length=48)),
    "multisize-q4-80": ("multisize", dict(q=4, rho=0.8)),  # s = 1: constant run
    "balanced-q16": ("balanced", dict(q=16)),
    "balanced-q8": ("balanced", dict(q=8)),
    "window-q6": ("window", dict(q=6)),
    "window-q2": ("window", dict(q=2)),
}

PAYLOADS = {
    "empty": b"",
    "one": b"\xa7",
    "seeded": random.Random(3).randbytes(37),
}

DIGESTS = {
    ("base-q4-b32", "empty"): "3147ec399b954cb365b37e0bf016f1c823432396cb4c9f60a3f41ef811700031",
    ("base-q4-b32", "one"): "b4432c8727b653d84b2901b818dad8423254930d0872e557c88be8d64c774761",
    ("base-q4-b32", "seeded"): "03f81acc382e256e2284de9b229f47ca67289362b65ac00625f5b0f8089f85c8",
    ("base-q5-b7", "empty"): "800f6d3ff3786980e06b24d99bd45de5eac0becb3a074f52e3825c34f1fe10fb",
    ("base-q5-b7", "one"): "7e417b969fd16fc15aee3af0e5388026cbee31e5407b27e270b5650b6d9381dd",
    ("base-q5-b7", "seeded"): "6fa74ea963bbd079340b6571598290a55efa48d754aabc4cd48afb9e70fe1880",
    ("lookup-q4-d2", "empty"): "7f685c19ac7e55bc0ad72d5a307451585ec6cbcb2b7f20450a98fafaf0583572",
    ("lookup-q4-d2", "one"): "297b52436e5deb1b461475812b3133fbad44b648569985355aa238d8b38bc46a",
    ("lookup-q4-d2", "seeded"): "052e9b3d0d5622ab8007b32dcc3504c564fc3d3d0ef4050fee59377f756161bd",
    ("lookup-q4-d16", "empty"): "4affdb23cc0d723a04a49bc740fe0eebf1002aaa6a55f5241e86db2cc2cd5646",
    ("lookup-q4-d16", "one"): "ca93069740b3cd4d7a6926f087a771e273e31933c8891a630a1a9acc81b9952c",
    ("lookup-q4-d16", "seeded"): "d989f7e969f2864e4450f2927ecdea37201c0498357cdcc6188ac1c2473cde06",
    ("multisize-q5-45", "empty"): "cfa1618982c101539f9627b257ada6731f204bdefa5df00c596e3259586e6439",
    ("multisize-q5-45", "one"): "f040441aa18a4abac3848fe2dad363915599d8a2fdf7dda946cb87fdb8d75738",
    ("multisize-q5-45", "seeded"): "e741341a1ff8674270a83af766808c54f38103cf515a83a49a58613d556dac35",
    ("multisize-q4-80", "empty"): "84fd101176f68b389df02daaa01e58434866912154efd329c41b545cfffc344b",
    ("multisize-q4-80", "one"): "52f57188602f20f252a8b7d807b28085caec6c621cdd5cc2e5a0d9cc54a68237",
    ("multisize-q4-80", "seeded"): "c9315b219e6183f9448afca4577a02632f3b63d74d3d21f3e2e3b682ec169759",
    ("balanced-q16", "empty"): "12407685545812a2f5d459c0103d158c760f89d985103c22e17ee6ef2e465f9e",
    ("balanced-q16", "one"): "6f253f4b3518fb3f7d4d39625e102c2c46226ff74018918b171c8d5e0d313f3f",
    ("balanced-q16", "seeded"): "3b65c167e89742296033960130c4429cc0eeaa41633fec6997fcb25ee86305f8",
    ("balanced-q8", "empty"): "e8372e824656955bf2ff366e15ec787b89658d0df52eaffa3311482391da70d6",
    ("balanced-q8", "one"): "e99a83a9512696de299f77669facccf4171bff12dfc5271d6594f9465921f7a5",
    ("balanced-q8", "seeded"): "63e6f6d1c717a51ea28b5d8e10e339b867d215ff08581b1e4d5db2da79b6d00f",
    ("window-q6", "empty"): "4f7fe4fda9f938537c6cfaa13afe351d62fcbce30a7409a4ad6104a72a8fa89c",
    ("window-q6", "one"): "f98c8c0ade3e9ee22490ea0d8ccc13efb4220bd7cb503a2447160e2a6b52ccf6",
    ("window-q6", "seeded"): "2959fc75664a2faeb27bad02603c98f80162892404a04a6b320e8b5606a8bdd1",
    ("window-q2", "empty"): "73d7317b63ef8fde175be17eea59c0900e186865a58c9b5efcf5ae2636d047c6",
    ("window-q2", "one"): "feff17e59b0bc28e87e96a66c1d0958e287aa44130cfe4624d917e9b7a1daa49",
    ("window-q2", "seeded"): "09ff8306fac4b6a4e20bcb0dfa49728e78b7d22ca18e825302d1a087a6ed6a8e",
}


@pytest.mark.parametrize("setup, payload", sorted(DIGESTS))
def test_golden_batch(setup, payload):
    scheme, kwargs = SETUPS[setup]
    bits = bits_from_bytes(PAYLOADS[payload])
    text = encode_payload(scheme, bits, **kwargs).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[setup, payload]
    assert decode_payload(EncodedBatch.from_json(text)) == bits
