import json
from fractions import Fraction
from pathlib import Path

import pytest

from fuzzyifs.scene import (
    SceneError,
    SceneParseError,
    StopRule,
    load_scene,
    load_scene_dict,
    scene_to_dict,
)

F = Fraction
SCENES = Path(__file__).resolve().parent.parent / "scenes"


def slice_doc():
    return json.loads((SCENES / "dyadic_slice.json").read_text())


def test_bundled_scenes_load_and_validate(tmp_path):
    for name in ("dyadic_slice.json", "dyadic_band.json"):
        scene = load_scene(SCENES / name)
        assert scene.exact
        assert scene.system.validate() == []
        assert scene.initial.normal
        assert scene.stop.steps == 3
        assert scene.render.width == 64


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_round_trip(mode):
    scene = load_scene(SCENES / "dyadic_slice.json", mode_override=mode)
    assert scene.numeric_mode == mode
    text = json.dumps(scene_to_dict(scene))
    assert load_scene_dict(json.loads(text, parse_float=str)) == scene


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_grey_maps_round_trip_as_breakpoints(mode):
    doc = slice_doc()
    doc["grey_maps"] = [
        {"breakpoints": [[0, 0], ["1/2", "1/4"], ["1/2", "3/4"], [1, 1]]},  # jump inside
        {"breakpoints": [[0, 0], ["1/3", "1/2"], [1, "3/4"], [1, "7/8"]]},  # jump at t = 1
    ]
    scene = load_scene_dict(doc, mode_override=mode)
    again = load_scene_dict(scene_to_dict(scene))
    assert again.system.grey_maps == scene.system.grey_maps
    assert scene_to_dict(again)["grey_maps"] == scene_to_dict(scene)["grey_maps"]


def test_duplicated_breakpoint_loads_as_the_map_without_it():
    doc = slice_doc()
    doc["grey_maps"][1] = {"breakpoints": [[0, 0], ["1/2", "3/8"], ["1/2", "3/8"], [1, "3/4"]]}
    with_duplicate = load_scene_dict(doc).system.grey_maps[1]
    doc["grey_maps"][1] = {"breakpoints": [[0, 0], ["1/2", "3/8"], [1, "3/4"]]}
    assert with_duplicate == load_scene_dict(doc).system.grey_maps[1]


def test_three_breakpoints_at_one_t_rejected():
    doc = slice_doc()
    doc["grey_maps"][1] = {"breakpoints": [[0, 0], ["1/2", "1/4"], ["1/2", "1/4"], ["1/2", "1/2"],
                                           [1, "3/4"]]}
    with pytest.raises(SceneError, match=r"grey_maps\[1\]: more than two breakpoints share t=1/2"):
        load_scene_dict(doc)


def test_exact_mode_reads_decimals_exactly():
    doc = slice_doc()
    doc["contraction_constant"] = 0.1  # JSON decimal
    text = json.dumps(doc)
    raw = json.loads(text, parse_float=str)
    scene = load_scene_dict(raw)
    assert scene.system.ifs.contraction_constant == F(1, 10)


def test_rational_strings_carry_exactness():
    scene = load_scene(SCENES / "dyadic_slice.json")
    assert scene.system.grey_maps[1].value_at_one == F(3, 4)
    assert scene.initial.level((F(1, 2), F(0))) == 1


def test_contraction_constant_out_of_range():
    doc = slice_doc()
    doc["contraction_constant"] = "1"
    with pytest.raises(SceneError) as err:
        load_scene_dict(doc)
    assert any("contraction_constant out of range" in v for v in err.value.violations)


def test_initial_must_be_normal():
    doc = slice_doc()
    doc["initial"] = [[["1/2", "0"], "1/2"]]
    with pytest.raises(SceneError) as err:
        load_scene_dict(doc)
    assert any("not normal" in v for v in err.value.violations)


def test_all_violations_reported_at_once():
    doc = slice_doc()
    doc["contraction_constant"] = "2"
    doc["initial"] = [[["1/2", "0"], "1/2"]]
    doc["grey_maps"][1]["breakpoints"] = [["0", "0"], ["1", "3/4"], ["1/2", "1"]]
    with pytest.raises(SceneError) as err:
        load_scene_dict(doc)
    text = "\n".join(err.value.violations)
    assert "contraction_constant" in text
    assert "not normal" in text
    assert "grey_maps[1]" in text


def test_admissibility_checked_on_load():
    doc = slice_doc()
    doc["grey_maps"][0]["breakpoints"] = [["0", "0"], ["1", "3/4"]]
    with pytest.raises(SceneError) as err:
        load_scene_dict(doc)
    assert any("rho(1)" in v for v in err.value.violations)


def test_stop_rule_validation():
    doc = slice_doc()
    doc["stop"] = {}
    with pytest.raises(SceneError):
        load_scene_dict(doc)
    doc["stop"] = {"steps": 2, "tolerance": "1/10"}
    with pytest.raises(SceneError):
        load_scene_dict(doc)
    doc["stop"] = {"tolerance": "0"}
    with pytest.raises(SceneError):
        load_scene_dict(doc)
    with pytest.raises(ValueError):
        StopRule()


def test_unknown_keys_flagged():
    doc = slice_doc()
    doc["mystery"] = 1
    with pytest.raises(SceneError) as err:
        load_scene_dict(doc)
    assert any("unknown keys" in v for v in err.value.violations)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 2,,}')
    with pytest.raises(SceneParseError) as err:
        load_scene(path)
    assert "line 1" in str(err.value)


def test_non_finite_numbers_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"contraction_constant": NaN}')
    with pytest.raises(SceneParseError):
        load_scene(path)


def test_render_validation():
    doc = slice_doc()
    doc["render"] = {"bbox": [1, 0, 0, 1], "width": 4, "height": 4}
    with pytest.raises(SceneError) as err:
        load_scene_dict(doc)
    assert err.value.violations == ["render bbox needs x0 < x1, y0 < y1 and finite extents"]


def _set(doc, path, value):
    *parents, key = path
    for name in parents:
        doc = doc[name]
    doc[key] = value


@pytest.mark.parametrize("path, value, message", [
    pytest.param(("dimension",), True, "dimension must be a positive integer", id="dimension"),
    pytest.param(("stop", "steps"), True, "stop.steps must be an integer", id="steps"),
    pytest.param(("support_cap",), True, "support_cap must be a positive integer",
                 id="support_cap"),
    pytest.param(("render", "width"), True, "render width and height must be positive",
                 id="width"),
    pytest.param(("render", "height"), True, "render width and height must be positive",
                 id="height"),
    pytest.param(("render", "bbox"), ["0", "0", "1e400", "1"], "render: ", id="bbox"),
    pytest.param(("initial",), [[["1/2", "0"], "1"], [["1e400", "0"], "1/2"]], "initial point: ",
                 id="initial"),
])
def test_field_violations_are_collected(path, value, message):
    doc = slice_doc()
    _set(doc, path, value)
    _set(doc, ("contraction_constant",), "2")
    with pytest.raises(SceneError) as err:
        load_scene_dict(doc, mode_override="float")
    text = "\n".join(err.value.violations)
    assert message in text and "contraction_constant" in text
