"""The digest gate of perfbench/gate.py."""

import gate


def _write(directory, files):
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return gate.digest_files(directory, files)


def test_flipped_byte_is_flagged(tmp_path):
    files = {"out.csv": b"a,b\n1,2\n", "out.json": b'{"passed": true}\n'}
    digests = _write(tmp_path, files)
    reference = {"op": {"exit": 0, "files": digests}}
    assert gate.check("op", 0, digests, reference, {}) == []

    data = bytearray(files["out.json"])
    data[3] ^= 0x01
    (tmp_path / "out.json").write_bytes(bytes(data))
    flipped = gate.digest_files(tmp_path, files)
    problems = gate.check("op", 0, flipped, reference, {})
    assert len(problems) == 1 and "out.json" in problems[0] and "out.csv" not in problems[0]


def test_exit_code_and_missing_file_are_flagged(tmp_path):
    digests = _write(tmp_path, {"a.txt": b"x"})
    reference = {"op": {"exit": 0, "files": digests}}
    assert gate.check("op", 1, digests, reference, {})[0].startswith("op: exit code 1")
    assert "a.txt" in gate.check("op", 0, {}, reference, {})[0]


def test_unrecorded_op_is_held_to_its_first_run(tmp_path):
    seen = {}
    digests = _write(tmp_path, {"a.txt": b"x"})
    assert gate.check("new op", 0, digests, {}, seen) == []
    assert seen == {"new op": {"exit": 0, "files": digests}}
    other = _write(tmp_path, {"a.txt": b"y"})
    assert "first run" in gate.check("new op", 0, other, {}, seen)[0]
    assert seen["new op"]["files"] == digests  # never re-baselined
