import pytest

import workloads


@pytest.mark.parametrize("workload", ["batch_steady", "batch_drift"])
def test_batch_specs_are_deterministic_per_seed(workload):
    first = workloads.make_spec(workload, 7, 15)
    again = workloads.make_spec(workload, 7, 15)
    other = workloads.make_spec(workload, 8, 15)
    assert first == again
    assert first["writes"] != other["writes"]
    assert first["dtds"] == other["dtds"]


def test_serve_spec_is_deterministic_and_sized_by_rate():
    first = workloads.make_spec("serve_mixed", 3, 2.0)
    assert first == workloads.make_spec("serve_mixed", 3, 2.0)
    assert first["writes"] != workloads.make_spec("serve_mixed", 4, 2.0)["writes"]
    assert len(first["writes"]) == int(workloads.DEPOSIT_RATE * 2.0)
    assert len(first["reads"]) == int(workloads.CLASSIFY_RATE * 2.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_program_receives_only_xml_strings(workload):
    from repro.xmltree.parser import parse_document

    spec = workloads.make_spec(workload, 1, 1.0)
    for xml in spec["writes"][:50] + spec["reads"][:50] + spec["warmup"]:
        assert isinstance(xml, str)
        parse_document(xml)


def test_reference_matches_a_fast_path_run(tmp_path):
    from repro.xmltree.parser import parse_document

    spec = workloads.make_spec("batch_steady", 2, 15)
    spec["writes"], spec["reads"] = spec["writes"][:150], spec["reads"][:30]
    reference = workloads.reference(spec, str(tmp_path / "ref.sqlite"))
    source = workloads.build_source(spec)
    outcomes = source.process_many(parse_document(xml) for xml in spec["writes"])
    assert reference["writes"] == workloads.digest([workloads.write_view(o) for o in outcomes])
    assert reference["state"] == workloads.final_state(source)
