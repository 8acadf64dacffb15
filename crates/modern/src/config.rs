//! Tests of the paper-era configurations — the nine classic bases and
//! their SFPF/PGU compositions — through the one spec type: building
//! them with `build_modern` (`tests`) and parsing them from the text
//! grammar (`parse_tests`).

mod tests {
    use predbranch_core::BranchPredictor;

    use crate::{build_modern, ModernSpec};

    #[test]
    fn builds_every_base() {
        let specs = [
            ModernSpec::StaticNotTaken,
            ModernSpec::StaticBtfn,
            ModernSpec::Bimodal { index_bits: 10 },
            ModernSpec::Gshare {
                index_bits: 12,
                history_bits: 10,
            },
            ModernSpec::Local {
                bht_bits: 10,
                history_bits: 10,
                pattern_bits: 12,
            },
            ModernSpec::Tournament {
                gshare_bits: 12,
                history_bits: 10,
                bimodal_bits: 12,
                chooser_bits: 12,
            },
            ModernSpec::OracleGuard,
            ModernSpec::Perceptron {
                index_bits: 8,
                history_bits: 16,
            },
            ModernSpec::Agree {
                index_bits: 10,
                history_bits: 10,
            },
        ];
        for spec in &specs {
            let p = build_modern(spec);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn sfpf_and_pgu_compose() {
        let spec = ModernSpec::Gshare {
            index_bits: 10,
            history_bits: 10,
        }
        .with_sfpf()
        .with_pgu(4);
        let p = build_modern(&spec);
        assert_eq!(p.name(), "sfpf+pgu[d4]+gshare-10/10");
    }

    #[test]
    fn pgu_on_historyless_base_falls_back() {
        let spec = ModernSpec::Bimodal { index_bits: 8 }.with_pgu(0);
        let p = build_modern(&spec);
        assert_eq!(p.name(), "bimodal-8");
    }

    #[test]
    fn display_matches_built_name() {
        let spec = ModernSpec::Gshare {
            index_bits: 10,
            history_bits: 8,
        };
        assert_eq!(spec.to_string(), "gshare-10/8");
    }
}

mod parse_tests {
    use predbranch_core::BranchPredictor;

    use crate::{build_modern, ModernSpec};

    #[test]
    fn parses_every_base() {
        for (text, expect_name) in [
            ("nt", "static-nt"),
            ("btfn", "static-btfn"),
            ("oracle", "oracle-guard"),
            ("bimodal:12", "bimodal-12"),
            ("gshare:13/13", "gshare-13/13"),
            ("local:10/10/12", "local-10/10/12"),
            ("tournament:12/12/12/12", "tournament-12"),
            ("perceptron:7/14", "perceptron-7/14"),
            ("agree:12/12", "agree-12/12"),
        ] {
            let spec: ModernSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(build_modern(&spec).name(), expect_name, "{text}");
        }
    }

    #[test]
    fn parses_modifiers_in_order() {
        let spec: ModernSpec = "gshare:10/10+pgu4+sfpf".parse().unwrap();
        assert_eq!(build_modern(&spec).name(), "sfpf+pgu[d4]+gshare-10/10");
        let spec: ModernSpec = "gshare:10/10+sfpf+pgu".parse().unwrap();
        assert_eq!(build_modern(&spec).name(), "sfpf+pgu[d8]+gshare-10/10");
        let spec: ModernSpec = "gshare:10/10+sfpf!".parse().unwrap();
        assert!(build_modern(&spec).name().contains("sfpf±"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "tage:1",
            "gshare",
            "gshare:13",
            "gshare:13/13/13",
            "gshare:a/b",
            "gshare:13/13+magic",
            "gshare:13/13+pguX",
        ] {
            assert!(bad.parse::<ModernSpec>().is_err(), "accepted `{bad}`");
        }
    }
}
