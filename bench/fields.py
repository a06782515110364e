"""The finite fields each workload builds during set-up."""

# field key -> FieldSpec arguments (p, m, modulus)
FIELD_ARGS = {"2": (2, 1, None), "3": (3, 1, None), "4": (2, 2, 7),
              "256": (2, 8, 285)}

WORKLOAD_FIELDS = {"deep": ("2", "3", "4", "256"), "sweep": ("2", "3", "4"),
                   "products": ("2", "3", "4"), "cli": ("2", "3", "256")}


def build_fields(workload: str) -> dict:
    from hncodes import FieldSpec
    return {key: FieldSpec(*FIELD_ARGS[key])
            for key in WORKLOAD_FIELDS[workload]}
