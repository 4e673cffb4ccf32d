let kb n = n * 1024
let mb n = n * 1024 * 1024

let region ~bytes ~weight ~stride_frac ~zipf_s : Profile.region =
  { bytes; weight; stride_frac; zipf_s }

let mcf : Profile.t =
  {
    name = "181.mcf";
    description = "network simplex; pointer chasing over a huge sparse graph";
    load_frac = 0.30;
    store_frac = 0.08;
    branch_frac = 0.17;
    jump_frac = 0.02;
    imul_frac = 0.01;
    idiv_frac = 0.001;
    fadd_frac = 0.;
    fmul_frac = 0.;
    fdiv_frac = 0.;
    dep_p = 0.40;
    dep2_prob = 0.45;
    code_bytes = kb 6;
    code_zipf_s = 1.2;
    hot = region ~bytes:(kb 4) ~weight:0.50 ~stride_frac:0.2 ~zipf_s:1.3;
    warm = region ~bytes:(kb 256) ~weight:0.30 ~stride_frac:0.15 ~zipf_s:1.2;
    cold = region ~bytes:(mb 12) ~weight:0.20 ~stride_frac:0.1 ~zipf_s:0.55;
    chase_frac = 0.06;
    loop_frac = 0.32;
    biased_frac = 0.58;
    loop_mean_iters = 12;
    biased_p = 0.93;
  }

let crafty : Profile.t =
  {
    name = "186.crafty";
    description = "chess search; branchy integer code, bit-board arithmetic";
    load_frac = 0.28;
    store_frac = 0.07;
    branch_frac = 0.12;
    jump_frac = 0.02;
    imul_frac = 0.02;
    idiv_frac = 0.002;
    fadd_frac = 0.;
    fmul_frac = 0.;
    fdiv_frac = 0.;
    dep_p = 0.35;
    dep2_prob = 0.55;
    code_bytes = kb 48;
    code_zipf_s = 0.9;
    hot = region ~bytes:(kb 6) ~weight:0.60 ~stride_frac:0.2 ~zipf_s:1.3;
    warm = region ~bytes:(kb 96) ~weight:0.36 ~stride_frac:0.15 ~zipf_s:1.2;
    cold = region ~bytes:(mb 1) ~weight:0.04 ~stride_frac:0.1 ~zipf_s:0.8;
    chase_frac = 0.02;
    loop_frac = 0.28;
    biased_frac = 0.60;
    loop_mean_iters = 8;
    biased_p = 0.93;
  }

let parser : Profile.t =
  {
    name = "197.parser";
    description = "link grammar parser; dictionary lookups, recursion";
    load_frac = 0.26;
    store_frac = 0.09;
    branch_frac = 0.14;
    jump_frac = 0.02;
    imul_frac = 0.01;
    idiv_frac = 0.001;
    fadd_frac = 0.;
    fmul_frac = 0.;
    fdiv_frac = 0.;
    dep_p = 0.40;
    dep2_prob = 0.5;
    code_bytes = kb 24;
    code_zipf_s = 1.05;
    hot = region ~bytes:(kb 6) ~weight:0.55 ~stride_frac:0.15 ~zipf_s:1.3;
    warm = region ~bytes:(kb 192) ~weight:0.37 ~stride_frac:0.15 ~zipf_s:1.15;
    cold = region ~bytes:(mb 4) ~weight:0.08 ~stride_frac:0.1 ~zipf_s:0.7;
    chase_frac = 0.04;
    loop_frac = 0.28;
    biased_frac = 0.60;
    loop_mean_iters = 6;
    biased_p = 0.92;
  }

let perlbmk : Profile.t =
  {
    name = "253.perlbmk";
    description = "perl interpreter; large code, indirect dispatch";
    load_frac = 0.27;
    store_frac = 0.11;
    branch_frac = 0.12;
    jump_frac = 0.05;
    imul_frac = 0.01;
    idiv_frac = 0.001;
    fadd_frac = 0.;
    fmul_frac = 0.;
    fdiv_frac = 0.;
    dep_p = 0.42;
    dep2_prob = 0.5;
    code_bytes = kb 56;
    code_zipf_s = 0.8;
    hot = region ~bytes:(kb 8) ~weight:0.58 ~stride_frac:0.2 ~zipf_s:1.3;
    warm = region ~bytes:(kb 256) ~weight:0.36 ~stride_frac:0.15 ~zipf_s:1.2;
    cold = region ~bytes:(mb 2) ~weight:0.06 ~stride_frac:0.1 ~zipf_s:0.8;
    chase_frac = 0.03;
    loop_frac = 0.25;
    biased_frac = 0.63;
    loop_mean_iters = 6;
    biased_p = 0.94;
  }

let vortex : Profile.t =
  {
    name = "255.vortex";
    description = "object database; large code and data, store-heavy";
    load_frac = 0.28;
    store_frac = 0.14;
    branch_frac = 0.11;
    jump_frac = 0.03;
    imul_frac = 0.01;
    idiv_frac = 0.001;
    fadd_frac = 0.;
    fmul_frac = 0.;
    fdiv_frac = 0.;
    dep_p = 0.50;
    dep2_prob = 0.5;
    code_bytes = kb 80;
    code_zipf_s = 0.7;
    hot = region ~bytes:(kb 8) ~weight:0.60 ~stride_frac:0.25 ~zipf_s:1.25;
    warm = region ~bytes:(kb 320) ~weight:0.37 ~stride_frac:0.2 ~zipf_s:1.2;
    cold = region ~bytes:(mb 2) ~weight:0.03 ~stride_frac:0.15 ~zipf_s:0.8;
    chase_frac = 0.02;
    loop_frac = 0.25;
    biased_frac = 0.67;
    loop_mean_iters = 7;
    biased_p = 0.95;
  }

let twolf : Profile.t =
  {
    name = "300.twolf";
    description = "place and route; pointer structures, hard branches";
    load_frac = 0.26;
    store_frac = 0.07;
    branch_frac = 0.14;
    jump_frac = 0.02;
    imul_frac = 0.02;
    idiv_frac = 0.003;
    fadd_frac = 0.01;
    fmul_frac = 0.01;
    fdiv_frac = 0.001;
    dep_p = 0.38;
    dep2_prob = 0.5;
    code_bytes = kb 20;
    code_zipf_s = 1.1;
    hot = region ~bytes:(kb 6) ~weight:0.52 ~stride_frac:0.15 ~zipf_s:1.25;
    warm = region ~bytes:(kb 384) ~weight:0.40 ~stride_frac:0.1 ~zipf_s:1.1;
    cold = region ~bytes:(mb 3) ~weight:0.08 ~stride_frac:0.05 ~zipf_s:0.7;
    chase_frac = 0.05;
    loop_frac = 0.26;
    biased_frac = 0.56;
    loop_mean_iters = 10;
    biased_p = 0.90;
  }

let equake : Profile.t =
  {
    name = "183.equake";
    description = "FP earthquake simulation; streaming sparse-matrix loops";
    load_frac = 0.30;
    store_frac = 0.08;
    branch_frac = 0.06;
    jump_frac = 0.01;
    imul_frac = 0.01;
    idiv_frac = 0.;
    fadd_frac = 0.16;
    fmul_frac = 0.12;
    fdiv_frac = 0.003;
    dep_p = 0.30;
    dep2_prob = 0.6;
    code_bytes = kb 10;
    code_zipf_s = 1.3;
    hot = region ~bytes:(kb 8) ~weight:0.45 ~stride_frac:0.4 ~zipf_s:1.2;
    warm = region ~bytes:(kb 768) ~weight:0.40 ~stride_frac:0.7 ~zipf_s:1.0;
    cold = region ~bytes:(mb 8) ~weight:0.15 ~stride_frac:0.8 ~zipf_s:0.6;
    chase_frac = 0.01;
    loop_frac = 0.55;
    biased_frac = 0.40;
    loop_mean_iters = 24;
    biased_p = 0.95;
  }

let ammp : Profile.t =
  {
    name = "188.ammp";
    description = "FP molecular dynamics; long FP chains, big working set";
    load_frac = 0.28;
    store_frac = 0.07;
    branch_frac = 0.06;
    jump_frac = 0.01;
    imul_frac = 0.01;
    idiv_frac = 0.;
    fadd_frac = 0.15;
    fmul_frac = 0.14;
    fdiv_frac = 0.01;
    dep_p = 0.34;
    dep2_prob = 0.6;
    code_bytes = kb 14;
    code_zipf_s = 1.2;
    hot = region ~bytes:(kb 8) ~weight:0.45 ~stride_frac:0.3 ~zipf_s:1.2;
    warm = region ~bytes:(mb 1) ~weight:0.40 ~stride_frac:0.45 ~zipf_s:1.0;
    cold = region ~bytes:(mb 10) ~weight:0.15 ~stride_frac:0.5 ~zipf_s:0.6;
    chase_frac = 0.02;
    loop_frac = 0.50;
    biased_frac = 0.44;
    loop_mean_iters = 16;
    biased_p = 0.94;
  }

let all = [ mcf; crafty; parser; perlbmk; vortex; twolf; equake; ammp ]
