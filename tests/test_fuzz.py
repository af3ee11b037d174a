"""Fuzz suites for the two entry points that take outside input: a scene
document ends in a Scene or a SceneError/SceneParseError, and a command
line ends in an exit code 0-3, never in another exception.

The examples are derandomized and kept in no database, so every run draws
the same cases and leaves no .hypothesis/ directory behind."""

import copy
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from fuzzyifs.cli import main
from fuzzyifs.scene import Scene, SceneError, SceneParseError, load_scene_dict

SCENES = Path(__file__).resolve().parent.parent / "scenes"
SLICE = str(SCENES / "dyadic_slice.json")
BAND = str(SCENES / "dyadic_band.json")
# As load_scene reads them: decimals stay strings.
BUNDLED = [json.loads(Path(path).read_text(), parse_float=str) for path in (SLICE, BAND)]

# Hypothesis caches the constants of the code under test in its home
# directory, .hypothesis/ in the working directory by default, even without a
# database. Its pytest plugin collects them once this module is imported, so
# the home is a temporary directory from here on, removed at exit.
HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Leaves of a scene document: numbers no scalar can hold (1/0, 1e999, nan,
# 10^400 as a float), numbers that fit, and values of other types.
SCALARS = st.sampled_from(["1/0", "1e999", "-1e999", "nan", "inf", "1e300", "1/2", "0", "1",
                           "-1", "2", "0.1", "a/b", "", 10 ** 30, 10 ** 400, 0, 1, -1, 2,
                           0.5, 1e308, True, None])
KEYS = st.sampled_from(["dimension", "numeric_mode", "contraction_constant", "maps",
                        "grey_maps", "initial", "stop", "render", "support_cap", "linear",
                        "offset", "breakpoints", "steps", "tolerance", "bbox", "width",
                        "height", "exact", "float"])
JSON = st.recursive(
    SCALARS | st.text("01/.e-n", max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=12)


@st.composite
def mutated_scenes(draw):
    """A bundled scene with up to three values replaced by drawn JSON, or
    removed, each at a drawn depth."""
    doc = copy.deepcopy(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
            elif isinstance(node, dict) and draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = draw(JSON)
                break
    return doc


def with_render(bbox):
    doc = copy.deepcopy(BUNDLED[1])
    doc["render"]["bbox"] = bbox
    return doc


@FUZZ
@given(raw=JSON | mutated_scenes(), mode=st.sampled_from([None, "exact", "float"]))
@example(raw=with_render([0, 0, 1, "1/0"]), mode=None)
@example(raw=with_render([0, 0, 1, "1/0"]), mode="float")
def test_load_scene_dict_returns_a_scene_or_a_scene_error(raw, mode):
    try:
        scene = load_scene_dict(raw, mode_override=mode)
    except (SceneError, SceneParseError):
        return
    assert isinstance(scene, Scene)


# Output files are named by these placeholders and written to a new folder.
OUTPUTS = {"@out.pgm", "@out.csv", "@report.json"}
# A scene that an example writes to its folder first: the slice started at
# x = 10^400, past float range.
FAR, FAR_SCENE = "@far.json", {**BUNDLED[0], "initial": [[["1e400", "0"], "1"]]}
BBOXES = st.lists(st.sampled_from(["0", "1", "-1", "0.5", "2", "inf", "-inf", "nan", "1/0",
                                   "1e999"]), min_size=3, max_size=5).map(",".join)
GRIDS = st.builds("{}x{}".format, st.integers(0, 64), st.integers(0, 64)) | \
    st.sampled_from(["x", "8x", "axb", "-1x4", "64"])
# Words argparse rejects, too: a value that is not an int, a --bbox
# argument that reads as an option and an unknown flag.
RUN_OPTIONS = st.integers(-1, 3).map(lambda n: ["--steps", str(n)]) | \
    st.sampled_from(["exact", "float"]).map(lambda mode: ["--mode", mode]) | \
    GRIDS.map(lambda grid: ["--grid", grid]) | \
    BBOXES.map(lambda bbox: [f"--bbox={bbox}"]) | \
    st.sampled_from([["--out-image", "@out.pgm"], ["--out-csv", "@out.csv"],
                     ["--report", "@report.json"], ["--steps", "x"], ["--bbox", "-1,0,1,1"],
                     ["--bogus"]])
# A missing file, and no scene argument at all.
SCENE_ARGS = st.sampled_from([[SLICE], [BAND], [str(SCENES / "missing.json")], []])


def command(name, first, options=None):
    """argv for one command: its first words, then up to four options."""
    rest = st.just([]) if options is None else st.lists(options, max_size=4)
    return st.tuples(first, rest).map(
        lambda drawn: [name, *drawn[0], *(word for option in drawn[1] for word in option)])


ARGV = command("run", SCENE_ARGS, RUN_OPTIONS) | \
    command("verify", st.tuples(st.integers(0, 2), st.integers(-1, 2), st.integers(0, 3)).map(
        lambda t: ["--trials", str(t[0]), "--depth", str(t[1]), "--seed", str(t[2])])) | \
    command("render", SCENE_ARGS.map(lambda scene: [*scene, "--out-image", "@out.pgm"]),
            GRIDS.map(lambda grid: ["--grid", grid]) | BBOXES.map(lambda b: [f"--bbox={b}"])) | \
    st.just([])


# --help is left out: it exits 0 through SystemExit by design.
@FUZZ
@given(argv=ARGV)
@example(argv=["run", BAND, "--steps", "2", "--bbox=-inf,0,inf,1", "--out-image", "@out.pgm"])
@example(argv=["run", BAND, "--steps", "2", "--bbox=-1e308,0,1e308,1", "--out-image", "@out.pgm"])
@example(argv=["run", BAND, "--steps", "x"])
@example(argv=["run", BAND, "--bbox", "-1,0,1,1", "--out-image", "@out.pgm"])
@example(argv=["verify", "--bogus"])
@example(argv=["verify", "--trials", "1", "--depth", "1000000000"])
@example(argv=["run", FAR, "--steps", "2", "--out-image", "@out.pgm"])
@example(argv=["render", FAR, "--out-image", "@out.pgm"])
def test_the_command_line_ends_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as folder:
        if FAR in argv:
            Path(folder, FAR[1:]).write_text(json.dumps(FAR_SCENE))
        argv = [os.path.join(folder, word[1:]) if word in OUTPUTS or word == FAR else word
                for word in argv]
        assert main(argv) in (0, 1, 2, 3)
