type event =
  | Span of { path : string list; ns : int64 }
  | Counter of { name : string; value : int }
  | Gauge of { name : string; value : float }

type t = { emit : event -> unit; flush : unit -> unit }

let emit t event = t.emit event
let flush t = t.flush ()
let silent = { emit = ignore; flush = ignore }

let path_string path = String.concat "/" path

let json_of_event = function
  | Span { path; ns } ->
      Json.Obj
        [
          ("type", Json.String "span");
          ("path", Json.String (path_string path));
          ("ns", Json.Int (Int64.to_int ns));
        ]
  | Counter { name; value } ->
      Json.Obj
        [
          ("type", Json.String "counter");
          ("name", Json.String name);
          ("value", Json.Int value);
        ]
  | Gauge { name; value } ->
      Json.Obj
        [
          ("type", Json.String "gauge");
          ("name", Json.String name);
          ("value", Json.Float value);
        ]

let jsonl write =
  { emit = (fun e -> write (Json.to_string (json_of_event e))); flush = ignore }

let jsonl_channel oc =
  {
    emit =
      (fun e ->
        output_string oc (Json.to_string (json_of_event e));
        output_char oc '\n');
    flush = (fun () -> Stdlib.flush oc);
  }

let memory () =
  let events = ref [] in
  let lock = Mutex.create () in
  let sink =
    {
      emit =
        (fun e ->
          Mutex.lock lock;
          events := e :: !events;
          Mutex.unlock lock);
      flush = ignore;
    }
  in
  let contents () =
    Mutex.lock lock;
    let es = List.rev !events in
    Mutex.unlock lock;
    es
  in
  (sink, contents)
