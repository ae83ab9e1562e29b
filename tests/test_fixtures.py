"""The generators in tools/ reproduce tests/fixtures/ bit-for-bit."""

import shutil
import subprocess
import sys

GENERATORS = ("make_golden.py", "make_material_fixtures.py",
              "make_rb_fixture.py")


def test_generators_reproduce_fixtures(tmp_path, fixtures_dir):
    """Each generator writes to ../tests/fixtures relative to itself, so a
    copy of tools/ under tmp_path fills tmp_path/tests/fixtures."""
    tools = tmp_path / "tools"
    tools.mkdir()
    for script in (fixtures_dir.parents[1] / "tools").glob("*.py"):
        shutil.copy(script, tools)
    out = tmp_path / "tests" / "fixtures"
    out.mkdir(parents=True)
    for name in GENERATORS:
        subprocess.run([sys.executable, str(tools / name)], cwd=tmp_path,
                       check=True, capture_output=True, timeout=120)
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in fixtures_dir.iterdir())
    for name in written:
        assert (out / name).read_bytes() == \
            (fixtures_dir / name).read_bytes(), name
