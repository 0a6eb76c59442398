//! The evaluated interposer configurations (paper Tables 4 and 5).

use interpose::Interposer;

/// One evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// No interposition.
    Native,
    /// zpoline without the NULL-execution check.
    ZpolineDefault,
    /// zpoline with the bitmap NULL-execution check.
    ZpolineUltra,
    /// lazypoline.
    Lazypoline,
    /// K23 without checks.
    K23Default,
    /// K23 with the hash-set NULL-execution check.
    K23Ultra,
    /// K23 with the check and the dedicated-stack switch.
    K23UltraPlus,
    /// SUD armed but inert (isolates the kernel slow path).
    SudNoInterpose,
    /// Full SUD interposition.
    Sud,
}

impl Config {
    /// All Table 5 configurations, in row order (native excluded).
    pub const TABLE5: [Config; 8] = [
        Config::ZpolineDefault,
        Config::ZpolineUltra,
        Config::Lazypoline,
        Config::K23Default,
        Config::K23Ultra,
        Config::K23UltraPlus,
        Config::SudNoInterpose,
        Config::Sud,
    ];

    /// The Table 6 configurations (SUD-no-interposition is not in Table 6).
    pub const TABLE6: [Config; 7] = [
        Config::ZpolineDefault,
        Config::ZpolineUltra,
        Config::Lazypoline,
        Config::K23Default,
        Config::K23Ultra,
        Config::K23UltraPlus,
        Config::Sud,
    ];

    /// Display label, matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Config::Native => "native",
            Config::ZpolineDefault => "zpoline-default",
            Config::ZpolineUltra => "zpoline-ultra",
            Config::Lazypoline => "lazypoline",
            Config::K23Default => "K23-default",
            Config::K23Ultra => "K23-ultra",
            Config::K23UltraPlus => "K23-ultra+",
            Config::SudNoInterpose => "SUD-no-interposition",
            Config::Sud => "SUD",
        }
    }

    /// Canonical [`interpose::registry`] name.
    pub fn name(self) -> &'static str {
        match self {
            Config::Native => "native",
            Config::ZpolineDefault => "zpoline",
            Config::ZpolineUltra => "zpoline-ultra",
            Config::Lazypoline => "lazypoline",
            Config::K23Default => "k23",
            Config::K23Ultra => "k23-ultra",
            Config::K23UltraPlus => "k23-ultra+",
            Config::SudNoInterpose => "sud-armed",
            Config::Sud => "sud",
        }
    }

    /// Instantiates the interposer via the registry.
    pub fn make(self) -> Box<dyn Interposer> {
        crate::cli::mechanism(self.name()).expect("registered mechanism")
    }

    /// True for the K23 variants (which get an offline phase first, as in
    /// the paper's methodology §6.2).
    pub fn needs_offline(self) -> bool {
        k23::needs_offline(self.name())
    }

    /// The paper's Table 5 overhead for comparison output.
    pub fn paper_table5(self) -> Option<f64> {
        Some(match self {
            Config::ZpolineDefault => 1.1267,
            Config::ZpolineUltra => 1.1576,
            Config::Lazypoline => 1.3801,
            Config::K23Default => 1.2788,
            Config::K23Ultra => 1.3919,
            Config::K23UltraPlus => 1.3948,
            Config::SudNoInterpose => 1.2269,
            Config::Sud => 15.3022,
            Config::Native => return None,
        })
    }
}
