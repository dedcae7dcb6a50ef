#include "workload/workload.h"

namespace rpe {

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kTpch: return "tpch";
    case WorkloadKind::kTpcds: return "tpcds";
    case WorkloadKind::kReal1: return "real1";
    case WorkloadKind::kReal2: return "real2";
  }
  return "unknown";
}

PhysicalDesign DesignFor(WorkloadKind kind, TuningLevel level) {
  PhysicalDesign d;
  d.name = std::string(WorkloadKindName(kind)) + "-" + TuningLevelName(level);
  auto add = [&](const char* table, const char* column) {
    d.indexes.push_back(IndexSpec{table, column});
  };
  switch (kind) {
    case WorkloadKind::kTpch: {
      // Untuned: primary-key indexes only (integrity constraints).
      add("region", "r_regionkey");
      add("nation", "n_nationkey");
      add("supplier", "s_suppkey");
      add("customer", "c_custkey");
      add("part", "p_partkey");
      add("orders", "o_orderkey");
      if (level == TuningLevel::kUntuned) break;
      // Partially tuned: the highest-benefit foreign-key indexes.
      add("lineitem", "l_orderkey");
      add("lineitem", "l_partkey");
      add("orders", "o_custkey");
      if (level == TuningLevel::kPartiallyTuned) break;
      // Fully tuned: everything DTA would recommend for this workload.
      add("lineitem", "l_suppkey");
      add("lineitem", "l_shipdate");
      add("customer", "c_nationkey");
      add("supplier", "s_nationkey");
      add("partsupp", "ps_partkey");
      add("partsupp", "ps_suppkey");
      add("nation", "n_regionkey");
      add("orders", "o_orderdate");
      break;
    }
    case WorkloadKind::kTpcds: {
      add("date_dim", "d_datekey");
      add("item", "i_itemkey");
      add("ds_customer", "dc_custkey");
      add("store", "st_storekey");
      add("promotion", "pr_promokey");
      if (level == TuningLevel::kUntuned) break;
      add("store_sales", "ss_itemkey");
      add("store_sales", "ss_datekey");
      if (level == TuningLevel::kPartiallyTuned) break;
      add("store_sales", "ss_custkey");
      add("store_sales", "ss_storekey");
      add("store_sales", "ss_promokey");
      add("web_sales", "ws_itemkey");
      add("web_sales", "ws_custkey");
      add("web_sales", "ws_datekey");
      break;
    }
    case WorkloadKind::kReal1: {
      add("category", "cat_key");
      add("product", "prod_key");
      add("geography", "geo_key");
      add("store_dim", "std_key");
      add("time_dim", "t_key");
      add("promotion_r1", "pm_key");
      if (level == TuningLevel::kUntuned) break;
      add("sales_fact", "sf_prodkey");
      add("sales_fact", "sf_timekey");
      if (level == TuningLevel::kPartiallyTuned) break;
      add("sales_fact", "sf_storekey");
      add("sales_fact", "sf_promokey");
      add("inventory_fact", "inv_prodkey");
      add("inventory_fact", "inv_timekey");
      add("store_dim", "std_geokey");
      add("product", "prod_catkey");
      break;
    }
    case WorkloadKind::kReal2: {
      add("region2", "rg_key");
      add("policyholder", "ph_key");
      add("agency", "agc_key");
      add("agent", "ag_key");
      add("product_line", "pl_key");
      add("product2", "pd_key");
      add("date_dim2", "dd_key");
      add("office", "of_key");
      add("adjuster", "adj_key");
      add("vendor", "vn_key");
      add("coverage", "cv_key");
      add("policy", "po_key");
      if (level == TuningLevel::kUntuned) break;
      add("claims_fact", "cl_policykey");
      add("claims_fact", "cl_datekey");
      add("policy", "po_holderkey");
      if (level == TuningLevel::kPartiallyTuned) break;
      add("claims_fact", "cl_adjusterkey");
      add("claims_fact", "cl_vendorkey");
      add("payment_fact", "pay_policykey");
      add("policy", "po_agentkey");
      add("policy", "po_prodkey");
      add("agent", "ag_agencykey");
      add("adjuster", "adj_officekey");
      break;
    }
  }
  return d;
}

Result<Workload> BuildWorkload(const WorkloadConfig& config) {
  switch (config.kind) {
    case WorkloadKind::kTpch: return BuildTpchWorkload(config);
    case WorkloadKind::kTpcds: return BuildTpcdsWorkload(config);
    case WorkloadKind::kReal1: return BuildReal1Workload(config);
    case WorkloadKind::kReal2: return BuildReal2Workload(config);
  }
  return Status::InvalidArgument("unknown workload kind");
}

std::vector<WorkloadConfig> PaperWorkloadConfigs() {
  // Paper counts: TPC-DS ~200, TPC-H 1000 x 3 designs, Real-1 477,
  // Real-2 632. Query counts here are scaled down ~2.5x so the full
  // six-workload sweep runs in minutes (the table is in docs/PAPER_MAP.md,
  // "Workload sizes").
  std::vector<WorkloadConfig> configs;
  {
    WorkloadConfig c;
    c.kind = WorkloadKind::kTpcds;
    c.name = "tpcds";
    c.scale = 10.0;
    c.zipf = 1.0;
    c.tuning = TuningLevel::kPartiallyTuned;
    c.num_queries = 150;
    c.seed = 11;
    configs.push_back(c);
  }
  const TuningLevel levels[3] = {TuningLevel::kUntuned,
                                 TuningLevel::kPartiallyTuned,
                                 TuningLevel::kFullyTuned};
  const char* level_tag[3] = {"untuned", "parttuned", "fulltuned"};
  for (int i = 0; i < 3; ++i) {
    WorkloadConfig c;
    c.kind = WorkloadKind::kTpch;
    c.name = std::string("tpch-") + level_tag[i];
    c.scale = 10.0;
    c.zipf = 1.0;
    c.tuning = levels[i];
    c.num_queries = 400;
    c.seed = 21 + static_cast<uint64_t>(i);
    configs.push_back(c);
  }
  {
    WorkloadConfig c;
    c.kind = WorkloadKind::kReal1;
    c.name = "real1";
    c.scale = 10.0;
    c.zipf = 1.2;
    c.tuning = TuningLevel::kPartiallyTuned;
    c.num_queries = 190;
    c.seed = 31;
    configs.push_back(c);
  }
  {
    WorkloadConfig c;
    c.kind = WorkloadKind::kReal2;
    c.name = "real2";
    c.scale = 10.0;
    c.zipf = 1.0;
    c.tuning = TuningLevel::kFullyTuned;
    c.num_queries = 250;
    c.seed = 41;
    configs.push_back(c);
  }
  return configs;
}

}  // namespace rpe
