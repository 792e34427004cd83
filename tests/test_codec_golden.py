"""Golden batches: frozen SHA-256 digests of batch JSON for fixed payloads.

A codec refactor must leave every batch byte-identical.  Each digest pins
one scheme setup on one payload; each frozen batch must also decode back to
its payload through the JSON form.  A second set of digests pins what decode
makes of 30 seeded single-symbol corruptions of each setup's 2 KiB batch:
the payload it returns, or the message it refuses the batch with.
"""

import hashlib
import random

import pytest

from oligocycle import EncodedBatch, decode_payload, encode_payload
from oligocycle.bits import bits_from_bytes
from oligocycle.errors import CorruptDataError
from oligocycle.sequence import Oligo

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
    # the edge of the batch coders, which code base blocks up to q = 127 and
    # leave larger alphabets to the per-block coder; the multisize setup has
    # a head over 127 and a tail over 128
    "base-q127-b7": ("base", dict(q=127, block_symbols=7)),
    "base-q128-b7": ("base", dict(q=128, block_symbols=7)),
    "multisize-q128-s127": ("multisize", dict(q=128, rho=2 / 128.5, oligo_length=16)),
}

PAYLOADS = {
    "empty": b"",
    "one": b"\xa7",
    "seeded": random.Random(3).randbytes(37),
    # realistic sizes: lookup d2 repeats rows, balanced q16 is one oligo of
    # thousands of two-digit symbols, window mixes lengths
    "2k": random.Random(2048).randbytes(2048),
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
    ("base-q4-b32", "2k"): "ccdfa05ab5cae4d8fbf200626008eb721e865f10c2b964883016a924c7042291",
    ("base-q5-b7", "2k"): "d1bba7f732f98e90eb0896e629ed188cd7fbf83c31225eaa8cfd06dbcf66fa24",
    ("lookup-q4-d2", "2k"): "25c5ae09846e16698a7fa19ed8220aea26a73777ce6f8bae60f5de5e236a3206",
    ("lookup-q4-d16", "2k"): "4a285f974cf25d3d6b0e98d420dbfd1d8ca5769478644a386868347f0bf32d48",
    ("multisize-q5-45", "2k"): "6c80528c64ede225fd76c902f0af15bd0ec1d438689532dea8e02a82a11b9ecb",
    ("multisize-q4-80", "2k"): "5d7f9545ef6c3d53111f2301dfe7387dd88c478a127c0060222d5f567c197b32",
    ("balanced-q16", "2k"): "5cf1b080b68c91bf5bc52e8f9827a253ab572c7f69ca9e8d4c3c626e0c0db1e6",
    ("balanced-q8", "2k"): "4924486daab55095b5cfe2cda9ccad0c3999d33a2931f7d1715b0f9eca48f364",
    ("window-q6", "2k"): "83e344601ed29c80ee166499e8a711bd4549fe36c7890e845028ad420b9981ee",
    ("window-q2", "2k"): "8d9e0676aa503bdcf23b98196e07d5ccfc6ee982e30c664ba284d4458e16e4ef",
    ("base-q127-b7", "empty"): "645c64ab596f18d0e3088de5b130f086098fa9394e30b98ed704ad55a2d78d05",
    ("base-q127-b7", "one"): "1f4c81266ca1006173826dc495207467e303b5f2dd6f579e216604f59b3ecaa6",
    ("base-q127-b7", "seeded"): "d12ef9c44c4c19cf15b4b81c9a53a08c7c7e322819d80da3c9e5c761b4e27375",
    ("base-q127-b7", "2k"): "337015c57e4496b5ef081e1df4e212355a5ad75eab3d15209eade44b2afd9757",
    ("base-q128-b7", "empty"): "cf7fe85e7a60e4c81f1aa0fc259f07f12914dfef2505dc6aedbacf6b7907043c",
    ("base-q128-b7", "one"): "dc94604c407462ecd71e717924b90d66b89a5acd43c71c6ce5ae2d675e704b96",
    ("base-q128-b7", "seeded"): "58baf15f020d9f35ea47462541d170c448f08bc943eb609a70b2b0a26a1729f4",
    ("base-q128-b7", "2k"): "dafa3ae884399788b51f62761dfc225dd80b345ca9e26899e283cdaed4c445f8",
    ("multisize-q128-s127", "empty"): "74d704405a506acee12b2d98161c6e1b6ab2a22bedb97118f28d23f88b10249f",
    ("multisize-q128-s127", "one"): "6e1dc6238616952a3a56f6ddbe61228dd6f9398550d03219e3471257e70fb8e0",
    ("multisize-q128-s127", "seeded"): "ad668003e38939ecfdb9f81fb8e090facb4b288aae99207c1fad792348996cb0",
    ("multisize-q128-s127", "2k"): "ac276cc6a74e4570f26d47777a013bf0a821acff93fccde40dbc503201727669",
}


@pytest.mark.parametrize("setup, payload", sorted(DIGESTS))
def test_golden_batch(setup, payload):
    scheme, kwargs = SETUPS[setup]
    bits = bits_from_bytes(PAYLOADS[payload])
    text = encode_payload(scheme, bits, **kwargs).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[setup, payload]
    assert decode_payload(EncodedBatch.from_json(text)) == bits


def corrupted(batch, rng):
    """The batch with one symbol of one oligo replaced by another of its alphabet."""
    oligos = list(batch.oligos)
    i = rng.randrange(len(oligos))
    symbols = list(oligos[i].symbols)
    j = rng.randrange(len(symbols))
    symbols[j] = rng.choice([s for s in range(1, oligos[i].q + 1) if s != symbols[j]])
    oligos[i] = Oligo(symbols, oligos[i].q)
    return batch._replace(oligos=tuple(oligos))


def outcome(batch) -> str:
    try:
        bits = decode_payload(batch)
    except CorruptDataError as exc:
        return f"error: {exc}"
    return hashlib.sha256(bits.encode()).hexdigest()


# SHA-256 of the outcomes of 30 seeded single-symbol corruptions of each
# setup's 2 KiB batch, one per line: the payload's SHA-256, or the error
OUTCOME_DIGESTS = {
    "balanced-q16": "fb66bdd66080ea6efcaa76082e4d3177cc578373aff98a9fe1252524d646c26b",
    "balanced-q8": "c9fdf01c12fd9790549b940842f62d2a2be0303a06b2bc1709d5c24ced9828d3",
    "base-q127-b7": "e37a595bbdb7e4d32a9f0873517a1fcf2f3f5f4f0fdd48ec67b2c72d2732e022",
    "base-q128-b7": "246e3c8c8601b0852b341c7009bda674ebd9a0712a978f204ffa3d3803479871",
    "base-q4-b32": "4c3097c4f6ce01b736dc82aeaa50022f2e1b790e0952a423a714c5d7f4bf5079",
    "base-q5-b7": "e58e3ce0988ef7f68900cb7caad953b90d79771e7a154f205a21e3e13d7b7b8b",
    "lookup-q4-d16": "2547f738449a9f8138d6e2681345c1cc2c2ca49c9c8c888216edb94e8919e85f",
    "lookup-q4-d2": "d73cec9c571f582935f461605708e9bc03fae3e3ccc3aa4f9f9f754e54e5b6f3",
    "multisize-q128-s127": "ced818bb1801afee14c39ef05c5280504ef15fd70f0d6b604b65ced08b11eef2",
    "multisize-q4-80": "0b69d55bfa5fd2170b7bec3fc85416c1b794bbbd8563ddae47f11a7ed5569f1c",
    "multisize-q5-45": "199ef07486a042f8143eca40cd468c5a116c9198d09513c693a50887eb82deb3",
    "window-q2": "4ad0949ee994af6208b395e3c0c24f504764115dcd6a3992912a56247aa55b0a",
    "window-q6": "f5976d2901183ab35f3376af580103d1c0ece8ff5a7db5c8eaba6064171bf6c4",
}


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_golden_decode_outcomes(setup):
    scheme, kwargs = SETUPS[setup]
    batch = encode_payload(scheme, bits_from_bytes(PAYLOADS["2k"]), **kwargs)
    rng = random.Random(f"outcomes-{setup}")
    outcomes = "\n".join(outcome(corrupted(batch, rng)) for _ in range(30))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == OUTCOME_DIGESTS[setup]


def text_edited(text, rng):
    """The batch JSON with one seeded character-level edit inside its oligo
    strings: a digit or comma inserted or deleted, a 0, space or + added, or
    two neighbouring digits swapped."""
    start = text.index('"oligos": [')
    # digits, and commas that separate symbols rather than JSON items
    spots = [
        i for i in range(start, len(text))
        if text[i].isdigit() or (text[i] == "," and text[i + 1] != "\n")
    ]
    i = rng.choice(spots)
    edit = rng.choice(["digit", "comma", "delete", "0", " ", "+", "swap"])
    if edit == "digit":
        return text[:i] + str(rng.randrange(10)) + text[i:]
    if edit == "comma":
        return text[:i] + "," + text[i:]
    if edit == "delete":
        return text[:i] + text[i + 1 :]
    if edit == "swap":
        j = next((j for j in (i + 1, i - 1) if text[j].isdigit() and text[j] != text[i]), i)
        a, b = sorted((i, j))
        return text[:a] + text[b] + text[a + 1 : b] + text[a] + text[b + 1 :] if a != b else text
    return text[:i] + edit + text[i:]


def text_outcome(text) -> str:
    try:
        bits = decode_payload(EncodedBatch.from_json(text))
    except CorruptDataError as exc:
        return f"error: {exc}"
    return hashlib.sha256(bits.encode()).hexdigest()


# SHA-256 of the outcomes of 30 seeded character-level edits of each setup's
# 2 KiB batch JSON, one per line, through from_json and decode_payload: these
# reach the text parser, which OUTCOME_DIGESTS' in-process corruptions skip
TEXT_OUTCOME_DIGESTS = {
    "balanced-q16": "85a2bf9b05fb6bdbd53c6e3d6d9b63c25885989e9a1bef03fc42d3070d270ce4",
    "balanced-q8": "68ed83394aafe2ce00d3f529b660e82f3767ca93c079133bd1ae3ddc34691c20",
    "base-q127-b7": "4ad025e162154e7154f9788b69860e7c9882acd8f82ffe239749c36ceec63b82",
    "base-q128-b7": "13d4488c28078e7a2e9d53e45e3756c8e9317a7e2a7d6e3cade52a2150b7a19a",
    "base-q4-b32": "a1dd689bab4236b4a1fa532f3f7a89f7981273998efe012df324cdbf799e5d39",
    "base-q5-b7": "ec59f221c0c14c80ae89ccc75254b77684a0a33364da62e652f943831c58e61f",
    "lookup-q4-d16": "f7f922d38fef1bdcf4dd0b127bd1d192be88bd729255e9f1956e2f81605a2a6c",
    "lookup-q4-d2": "ea784a281efc577438258f54fb26ab2eab1cdf26045f2af5b521b04ab5a1727a",
    "multisize-q128-s127": "d170c3f2a2bb982178bd019bc1d9b6160fce0bc76965710d29e06a53f8381329",
    "multisize-q4-80": "0ba40fddebc4c0b8df43a579cbeac042fc16a69f8a0ad4c24968837d927a063b",
    "multisize-q5-45": "5e867d470ca97cfef1bb191235684b14bea1154c141c43c1996b7789983abaf4",
    "window-q2": "563238fa1b1d93211e87dd6b2473d0dae82eb704eac4d613dfd27923b8169913",
    "window-q6": "c37e05080e25196e6a93917f3f3d53764fc946b954e784ba705826cde147d308",
}


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_golden_text_edit_outcomes(setup):
    scheme, kwargs = SETUPS[setup]
    text = encode_payload(scheme, bits_from_bytes(PAYLOADS["2k"]), **kwargs).to_json()
    rng = random.Random(f"text-edits-{setup}")
    outcomes = "\n".join(text_outcome(text_edited(text, rng)) for _ in range(30))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == TEXT_OUTCOME_DIGESTS[setup]
