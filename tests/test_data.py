import json
import math

import numpy as np
import pytest

from tabformer import data
from tabformer.data import (
    CATEGORICAL,
    NUMERIC,
    ColumnSchema,
    Dataset,
    FeatureSchema,
    GeneratorColumn,
    GeneratorSpec,
    apply_standardizer,
    bayes_probabilities,
    fit_standardizer,
    generate_synthetic,
    generate_table,
    load_csv,
    load_generator_spec,
    schema_with_stats,
    standardizer_from_schema,
    stratified_holdout,
    stratified_k_fold,
    true_probabilities,
    write_csv,
)
from tabformer.errors import ConfigError, DataError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSchema:
    def test_duplicate_names_rejected(self):
        cols = (ColumnSchema("a", NUMERIC), ColumnSchema("a", NUMERIC))
        with pytest.raises(DataError):
            FeatureSchema(cols)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSchema((ColumnSchema("a", "ordinal"),))

    def test_unk_index_is_vocab_size(self):
        col = ColumnSchema("c", CATEGORICAL, vocabulary=("x", "y"))
        assert col.unk_index == 2
        assert col.n_categories == 3

    def test_fingerprint_ignores_stats_but_not_vocab(self):
        base = FeatureSchema((ColumnSchema("a", NUMERIC), ColumnSchema("c", CATEGORICAL, ("x",))))
        with_stats = FeatureSchema(
            (ColumnSchema("a", NUMERIC, mean=1.5, std=2.0), ColumnSchema("c", CATEGORICAL, ("x",)))
        )
        other_vocab = FeatureSchema(
            (ColumnSchema("a", NUMERIC), ColumnSchema("c", CATEGORICAL, ("x", "y")))
        )
        assert base.fingerprint() == with_stats.fingerprint()
        assert base.fingerprint() != other_vocab.fingerprint()

    def test_dict_round_trip(self):
        schema = FeatureSchema(
            (ColumnSchema("a", NUMERIC, mean=0.5, std=1.25), ColumnSchema("c", CATEGORICAL, ("u", "v")))
        )
        assert FeatureSchema.from_dict(schema.to_dict()) == schema


class TestLoadCsv:
    def test_kinds_inferred_and_vocab_first_appearance(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["age,city,label", "31,oslo,1", "45,lima,0", "12,oslo,1"])
        ds = load_csv(p, "label")
        assert [c.kind for c in ds.schema.columns] == [NUMERIC, CATEGORICAL]
        assert ds.schema.columns[1].vocabulary == ("oslo", "lima")
        assert ds.rows[:, 1].tolist() == [0.0, 1.0, 0.0]
        assert ds.labels.tolist() == [1, 0, 1]

    def test_each_numeric_cell_is_parsed_once(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        write_lines(p, ["a,city,b,label", "1.5,oslo,-2,0", ",lima,3e1,1", "4.25,oslo,7,1"])
        parsed = []

        class CountingFloat(float):  # a type, so data's float annotations still resolve
            def __new__(cls, token):
                parsed.append(token)
                return float.__new__(cls, token)

        monkeypatch.setattr(data, "float", CountingFloat, raising=False)
        ds = load_csv(p, "label")
        assert ds.rows[:, [0, 2]].tolist() == [[1.5, -2.0], [0.0, 30.0], [4.25, 7.0]]
        numeric = ["1.5", "4.25", "-2", "3e1", "7"]
        assert sorted(t for t in parsed if t in numeric) == sorted(numeric)

    def test_missing_numeric_becomes_raw_zero(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["x,label", "2,0", "4,1", ",1"])
        ds = load_csv(p, "label")
        assert ds.rows[2, 0] == 0.0

    def test_missing_cell_standardizes_to_minus_mu_over_sigma(self, tmp_path):
        # impute first, scale second: the blank row must land at -mu/sigma
        p = tmp_path / "t.csv"
        write_lines(p, ["x,label", "2,0", "4,1", ",1"])
        ds = load_csv(p, "label")
        stats = fit_standardizer(ds.rows[:2], ds.schema)  # mu=3 sigma=1
        out = apply_standardizer(ds.rows, stats)
        assert out[2, 0] == -3.0
        assert out[0, 0] == -1.0 and out[1, 0] == 1.0

    def test_ragged_row_names_the_line(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["a,b,label", "1,2,0", "1,0"])
        with pytest.raises(DataError, match="line 3"):
            load_csv(p, "label")

    def test_bad_label_names_the_line(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["a,label", "1,0", "2,maybe"])
        with pytest.raises(DataError, match="line 3"):
            load_csv(p, "label")

    def test_ragged_row_after_the_first_chunk_names_its_line(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = ["1,0"] * 9000
        rows[8000] = "1"
        write_lines(p, ["a,label", *rows])
        with pytest.raises(DataError, match="line 8002: expected 2 cells, found 1"):
            load_csv(p, "label")

    def test_ragged_row_is_reported_before_an_earlier_bad_label(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["a,b,label", "1,2,maybe", "1,0"])
        with pytest.raises(DataError, match="line 3: expected 3 cells"):
            load_csv(p, "label")

    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["a,label", "x" * 200_000 + ",1"])
        with pytest.raises(DataError, match="field limit"):
            load_csv(p, "label")

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["a,label", "1,0.5"])
        with pytest.raises(DataError):
            load_csv(p, "label")

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["a,b", "1,2"])
        with pytest.raises(DataError, match="target"):
            load_csv(p, "label")

    def test_hint_forces_categorical(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["zip,label", "10,0", "20,1", "10,1"])
        ds = load_csv(p, "label", schema_hints={"zip": CATEGORICAL})
        assert ds.schema.columns[0].kind == CATEGORICAL
        assert ds.schema.columns[0].vocabulary == ("10", "20")

    def test_hint_for_unknown_column(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["a,label", "1,0"])
        with pytest.raises(ConfigError):
            load_csv(p, "label", schema_hints={"nope": NUMERIC})

    def test_numeric_hint_with_text_cell_fails(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["a,label", "1,0", "oops,1"])
        with pytest.raises(DataError, match="line 3"):
            load_csv(p, "label", schema_hints={"a": NUMERIC})

    def test_missing_indicator_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["x,city,label", "2,oslo,0", ",lima,1"])
        ds = load_csv(p, "label", add_missing_indicators=True)
        assert ds.schema.names == ["x", "city", "x__missing"]
        assert ds.rows[:, 2].tolist() == [0.0, 1.0]
        assert ds.schema.columns[2].kind == NUMERIC

    def test_empty_categorical_token_is_a_category(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["city,label", "oslo,0", ",1", "lima,0"])
        ds = load_csv(p, "label")
        assert ds.schema.columns[0].vocabulary == ("oslo", "", "lima")


class TestDatasetValidation:
    def schema(self):
        return FeatureSchema((ColumnSchema("a", NUMERIC),))

    def test_non_binary_labels(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), self.schema())

    def test_non_finite_rows(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan]]), np.array([0]), self.schema())

    def test_categorical_code_out_of_range(self):
        schema = FeatureSchema((ColumnSchema("c", CATEGORICAL, vocabulary=("x",)),))
        Dataset(np.array([[1.0]]), np.array([0]), schema)  # UNK code ok
        with pytest.raises(DataError):
            Dataset(np.array([[2.0]]), np.array([0]), schema)

    def test_subset_selects_rows_in_order(self):
        ds = Dataset(np.arange(4.0).reshape(4, 1), np.array([0, 1, 0, 1]), self.schema())
        sub = ds.subset(np.array([3, 1]))
        assert sub.rows[:, 0].tolist() == [3.0, 1.0]
        assert sub.labels.tolist() == [1, 1]


class TestStandardizer:
    def test_population_std(self):
        rows = np.array([[1.0], [2.0], [3.0], [4.0]])
        schema = FeatureSchema((ColumnSchema("a", NUMERIC),))
        stats = fit_standardizer(rows, schema)
        assert stats.means[0] == 2.5
        assert stats.stds[0] == math.sqrt(1.25)  # ddof=0, not 5/3

    def test_constant_column_maps_to_zero(self):
        rows = np.full((5, 1), 0.5)
        schema = FeatureSchema((ColumnSchema("a", NUMERIC),))
        out = apply_standardizer(rows, fit_standardizer(rows, schema))
        assert np.all(out == 0.0)

    def test_needs_two_rows(self):
        schema = FeatureSchema((ColumnSchema("a", NUMERIC),))
        with pytest.raises(DataError):
            fit_standardizer(np.ones((1, 1)), schema)

    def test_overflowing_statistics_are_a_data_error(self):
        rows = np.array([[1e308], [-1e308], [1e308]])
        schema = FeatureSchema((ColumnSchema("a", NUMERIC),))
        with pytest.raises(DataError, match="overflows"):
            fit_standardizer(rows, schema)

    def test_categorical_columns_untouched(self):
        rows = np.array([[10.0, 1.0], [20.0, 0.0]])
        schema = FeatureSchema(
            (ColumnSchema("a", NUMERIC), ColumnSchema("c", CATEGORICAL, ("x", "y")))
        )
        out = apply_standardizer(rows, fit_standardizer(rows, schema))
        assert out[:, 1].tolist() == [1.0, 0.0]
        assert out[:, 0].tolist() == [-1.0, 1.0]

    def test_schema_stats_round_trip(self):
        rows = np.array([[1.0, 0.0], [3.0, 1.0]])
        schema = FeatureSchema(
            (ColumnSchema("a", NUMERIC), ColumnSchema("c", CATEGORICAL, ("x", "y")))
        )
        stats = fit_standardizer(rows, schema)
        stamped = schema_with_stats(schema, stats)
        assert stamped.columns[0].mean == 2.0
        recovered = standardizer_from_schema(stamped)
        assert np.array_equal(
            apply_standardizer(rows, recovered), apply_standardizer(rows, stats)
        )

    def test_stats_missing_from_schema(self):
        schema = FeatureSchema((ColumnSchema("a", NUMERIC),))
        with pytest.raises(DataError):
            standardizer_from_schema(schema)


class TestStratifiedKFold:
    def test_partition(self):
        labels = np.array([0, 1] * 20)
        folds = stratified_k_fold(labels, 5, seed=3)
        seen = np.concatenate([folds.fold_indices(f) for f in range(5)])
        assert sorted(seen.tolist()) == list(range(40))

    def test_class_counts_within_one(self):
        rng = np.random.default_rng(0)
        for trial in range(12):
            n_pos = int(rng.integers(5, 200))
            n_neg = int(rng.integers(5, 200))
            k = int(rng.integers(2, 6))
            if min(n_pos, n_neg) < k:
                continue
            labels = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
            labels = rng.permutation(labels)
            folds = stratified_k_fold(labels, k, seed=trial)
            for cls, total in ((1, n_pos), (0, n_neg)):
                counts = [
                    int((labels[folds.fold_indices(f)] == cls).sum()) for f in range(k)
                ]
                share = total / k
                assert all(abs(c - share) <= 1.0 for c in counts)

    def test_deterministic_and_seed_sensitive(self):
        labels = np.array([0, 1] * 100)
        a = stratified_k_fold(labels, 5, seed=7).assignment
        b = stratified_k_fold(labels, 5, seed=7).assignment
        c = stratified_k_fold(labels, 5, seed=8).assignment
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_class_smaller_than_k(self):
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(DataError, match="class 1"):
            stratified_k_fold(labels, 5, seed=0)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ConfigError):
            stratified_k_fold(np.array([0, 1, 0, 1]), 1, seed=0)

    def test_holdout_is_stratified_eighth(self):
        labels = np.concatenate([np.ones(80, int), np.zeros(160, int)])
        mask = stratified_holdout(labels, 0.125, seed=5)
        assert mask.sum() == 30
        assert labels[mask].sum() == 10  # 80 positives / 8

    def test_holdout_fraction_range(self):
        with pytest.raises(ConfigError):
            stratified_holdout(np.array([0, 1]), 0.75, seed=0)


def linear_spec(weight=8.0, n_cols=1, seed=0, **kw):
    cols = tuple(GeneratorColumn(f"x{j}") for j in range(n_cols))
    weights = tuple([weight] + [0.0] * (n_cols - 1))
    return GeneratorSpec(columns=cols, weights=weights, seed=seed, **kw)


class TestGeneratorSpec:
    def test_weight_count_mismatch(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(columns=(GeneratorColumn("a"),), weights=(1.0, 2.0))

    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            linear_spec(noise_rate=1.5)
        with pytest.raises(ConfigError):
            linear_spec(missing_rate=-0.1)

    def test_interaction_pair_range(self):
        with pytest.raises(ConfigError):
            linear_spec(n_cols=2, interactions=(((0, 5), 1.0),))

    def test_dict_round_trip(self):
        spec = GeneratorSpec(
            columns=(
                GeneratorColumn("a"),
                GeneratorColumn("c", CATEGORICAL, categories=4, missing=True),
            ),
            weights=(2.0, -1.0),
            bias=0.25,
            noise_rate=0.05,
            missing_rate=0.1,
            interactions=(((0, 1), 3.0),),
            seed=11,
        )
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec

    def test_load_from_json_file(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(linear_spec().to_dict()), encoding="utf-8")
        assert load_generator_spec(p) == linear_spec()

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_generator_spec(p)

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            GeneratorSpec.from_dict({"columns": [{"name": "a"}]})


class TestGenerateTable:
    def test_deterministic(self):
        spec = linear_spec(n_cols=3)
        a = generate_table(spec, 50)
        b = generate_table(spec, 50)
        assert a[0] == b[0] and a[1] == b[1]
        assert np.array_equal(a[2], b[2])

    def test_explicit_seed_overrides(self):
        spec = linear_spec(n_cols=2, seed=0)
        a = generate_table(spec, 50, seed=1)
        b = generate_table(spec, 50, seed=2)
        assert a[1] != b[1]

    def test_numeric_marginals_standard_normal(self):
        spec = linear_spec(n_cols=2)
        ds = generate_synthetic(spec, 20000)
        col = ds.rows[:, 1]
        assert abs(col.mean()) < 0.05
        assert abs(col.std() - 1.0) < 0.05

    def test_categorical_marginals_uniform(self):
        spec = GeneratorSpec(
            columns=(GeneratorColumn("c", CATEGORICAL, categories=4),), weights=(0.0,)
        )
        _, rows, _ = generate_table(spec, 8000)
        tokens = [r[0] for r in rows]
        for t in ("c0", "c1", "c2", "c3"):
            frac = tokens.count(t) / 8000
            assert abs(frac - 0.25) < 0.03

    def test_label_rate_matches_true_probabilities(self):
        spec = linear_spec(weight=2.0, bias=-0.5)
        _, _, y = generate_table(spec, 20000)
        p = bayes_probabilities(spec, 20000)
        assert abs(y.mean() - p.mean()) < 0.02

    def test_full_noise_is_exact_complement(self):
        clean = generate_table(linear_spec(), 200)[2]
        flipped = generate_table(linear_spec(noise_rate=1.0), 200)[2]
        assert np.array_equal(flipped, 1 - clean)

    def test_missing_rate_applies_to_flagged_columns_only(self):
        spec = GeneratorSpec(
            columns=(GeneratorColumn("a", missing=True), GeneratorColumn("b")),
            weights=(1.0, 1.0),
            missing_rate=0.3,
        )
        _, rows, _ = generate_table(spec, 5000)
        blanks_a = sum(1 for r in rows if r[0] == "") / 5000
        blanks_b = sum(1 for r in rows if r[1] == "")
        assert abs(blanks_a - 0.3) < 0.03
        assert blanks_b == 0

    def test_blank_cells_impute_to_zero_in_dataset(self):
        spec = GeneratorSpec(
            columns=(GeneratorColumn("a", missing=True),), weights=(1.0,), missing_rate=0.5
        )
        header, rows, _ = generate_table(spec, 400)
        ds = generate_synthetic(spec, 400)
        for i, row in enumerate(rows):
            if row[0] == "":
                assert ds.rows[i, 0] == 0.0

    def test_interaction_term_drives_labels(self):
        # weight-0 mains, strong product term: label should track sign(x0*x1)
        spec = GeneratorSpec(
            columns=(GeneratorColumn("x0"), GeneratorColumn("x1")),
            weights=(0.0, 0.0),
            interactions=(((0, 1), 60.0),),
        )
        ds = generate_synthetic(spec, 6000)
        pred = (ds.rows[:, 0] * ds.rows[:, 1] > 0).astype(int)
        assert (pred == ds.labels).mean() > 0.9

    def test_threshold_rule_f1_on_spec_example(self):
        # single column, weight 8: thresholding the true probability at
        # 0.5 must score F1 above 0.9 by Monte-Carlo
        spec = linear_spec(weight=8.0)
        _, _, y = generate_table(spec, 20000)
        pred = (bayes_probabilities(spec, 20000) > 0.5).astype(int)
        tp = int(((pred == 1) & (y == 1)).sum())
        fp = int(((pred == 1) & (y == 0)).sum())
        fn = int(((pred == 0) & (y == 1)).sum())
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 > 0.9

    def test_bayes_scores_align_after_vocab_reordering(self):
        # category code order in the dataset may differ from the raw draw;
        # the oracle must still line up row-for-row with the labels
        spec = GeneratorSpec(
            columns=(GeneratorColumn("c", CATEGORICAL, categories=3),),
            weights=(40.0,),
            bias=-20.0,  # logits -20/+20/+60, so every category is decisive
        )
        ds = generate_synthetic(spec, 4000)
        pred = (bayes_probabilities(spec, 4000) > 0.5).astype(int)
        assert (pred == ds.labels).mean() > 0.95

    def test_csv_round_trip_bitwise(self, tmp_path):
        spec = GeneratorSpec(
            columns=(
                GeneratorColumn("a", missing=True),
                GeneratorColumn("c", CATEGORICAL, categories=3),
            ),
            weights=(3.0, 1.0),
            missing_rate=0.2,
            seed=4,
        )
        header, rows, _ = generate_table(spec, 300)
        path = tmp_path / "gen.csv"
        write_csv(header, rows, path)
        loaded = load_csv(path, "label", schema_hints={c.name: c.kind for c in spec.columns})
        direct = generate_synthetic(spec, 300)
        assert np.array_equal(loaded.rows, direct.rows)
        assert np.array_equal(loaded.labels, direct.labels)
        assert loaded.schema == direct.schema

    def test_true_probabilities_hand_value(self):
        spec = GeneratorSpec(
            columns=(GeneratorColumn("a"), GeneratorColumn("b")),
            weights=(2.0, -1.0),
            bias=0.5,
            interactions=(((0, 1), 4.0),),
        )
        vals = np.array([[1.0, 2.0]])
        # logit = 2 - 2 + 0.5 + 8 = 8.5
        expect = 1.0 / (1.0 + math.exp(-8.5))
        assert abs(true_probabilities(spec, vals)[0] - expect) < 1e-15

    def test_n_must_be_positive(self):
        with pytest.raises(ConfigError):
            generate_table(linear_spec(), 0)
