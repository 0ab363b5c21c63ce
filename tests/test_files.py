import pytest

from respqa.files import replaced_on_success


def test_a_clean_exit_replaces_the_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with replaced_on_success(path) as handle:
        handle.write("a,b\r\nc\n")
        assert path.read_text() == "old\n"
    assert path.read_bytes() == b"a,b\r\nc\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("earlier", [True, False])
def test_an_exception_keeps_what_the_path_held(tmp_path, earlier):
    path = tmp_path / "out.csv"
    if earlier:
        path.write_text("old\n")
    with pytest.raises(KeyboardInterrupt):
        with replaced_on_success(path) as handle:
            handle.write("partial")
            handle.flush()
            raise KeyboardInterrupt
    assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if earlier else [])
    if earlier:
        assert path.read_text() == "old\n"


@pytest.mark.parametrize(
    "name, error", [("missing/out.csv", FileNotFoundError), (".", IsADirectoryError)]
)
def test_a_path_that_cannot_be_written_fails_on_entry(tmp_path, name, error):
    with pytest.raises(error):
        with replaced_on_success(tmp_path / name):
            pytest.fail("the block ran")
    assert list(tmp_path.iterdir()) == []


def test_output_files_written_only_by_the_cli():
    # cli.py is the one writer of the package's output files: each command
    # creates its files before the work they record, so no other module may
    # write one on its own.
    import pathlib

    import respqa

    root = pathlib.Path(respqa.__file__).parent
    offenders = [
        path.name
        for path in root.rglob("*.py")
        if path.name not in ("cli.py", "files.py")
        and "replaced_on_success" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
